// Per-worker-thread context for Monte-Carlo trials.
//
// The expensive immutables of a trial — the matched-filter template banks
// (with their FFT spectra) — are memoised in a thread-local cache owned by
// the layer that computes them (ranging/search_subtract), so scenario
// construction per trial stops rebuilding them. WorkerContext is the handle
// a trial gets to that per-thread state: the metrics shard and a reset,
// without the trial function having to know where each cache lives.
#pragma once

#include "obs/metrics.hpp"

namespace uwb::runner {

class WorkerContext {
 public:
  /// The calling thread's context (one per thread, created on first use).
  static WorkerContext& current();

  /// This worker thread's metrics shard (obs::MetricsRegistry). Trials
  /// record through it with plain non-atomic writes; the registry merges
  /// shards deterministically after the pool drains.
  obs::Shard& metrics() const;

  /// Drop every cache of the calling thread (tests / memory pressure).
  void clear() const;

 private:
  WorkerContext() = default;
};

}  // namespace uwb::runner
