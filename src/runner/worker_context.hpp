// Per-worker-thread context for Monte-Carlo trials.
//
// The expensive immutables of a trial — pulse templates and matched-filter
// template banks (with their FFT spectra) — are memoised in thread-local
// caches owned by the layer that computes them (dw1000/pulse,
// ranging/search_subtract), so scenario construction per trial stops
// reallocating them. WorkerContext is the handle a trial gets to that
// per-thread state: aggregated cache statistics, the metrics shard and a
// reset, without the trial function having to know where each cache lives.
#pragma once

#include <cstddef>

#include "obs/metrics.hpp"

namespace uwb::runner {

class WorkerContext {
 public:
  /// The calling thread's context (one per thread, created on first use).
  static WorkerContext& current();

  /// Aggregated hit/miss counters of this thread's caches.
  struct CacheStats {
    std::size_t pulse_hits = 0;
    std::size_t pulse_misses = 0;
    std::size_t bank_hits = 0;
    std::size_t bank_misses = 0;
  };
  CacheStats stats() const;

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
