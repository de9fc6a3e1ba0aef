// Parallel Monte-Carlo experiment engine with a determinism contract.
//
// MonteCarlo::run(n_trials, fn) executes `fn` once per trial on a
// work-stealing thread pool. Each trial receives a seed derived purely
// from (base_seed, trial_index) via uwb::derive_seed, and records results
// into its own TrialRecorder; after the pool drains, the per-trial records
// are merged in trial-index order. Consequently the aggregate — every
// sample, every counter, bit for bit — is identical regardless of thread
// count or scheduling, which is what lets CI diff bench JSON across runs
// and machines.
//
// The trial function must draw all randomness from the provided seed and
// must not touch shared mutable state; everything else (scenario
// construction, detection, statistics) is per-trial. Expensive immutables
// are built once per process and shared read-only by every worker: the
// detector's plans (ranging::DetectorPlan) and the FFT plans
// (dsp::plan_for). A trial records metrics into its worker's shard,
// obs::MetricsRegistry::instance().local_shard().
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace uwb::runner {

/// Inputs handed to the trial function.
struct TrialContext {
  /// Trial number in [0, n_trials).
  int trial_index = 0;
  /// derive_seed(base_seed, trial_index) — the only randomness source a
  /// trial may use.
  std::uint64_t seed = 0;
};

/// Collects named samples and counters from one trial. Metric names are
/// free-form; trials may record different metrics (e.g. only sample an
/// error when the round decoded).
class TrialRecorder {
 public:
  /// Append one observation of `metric`.
  void sample(std::string_view metric, double value);

  /// Add `delta` to `counter`.
  void count(std::string_view counter, std::int64_t delta = 1);

 private:
  friend class MonteCarlo;
  friend class TrialResult;
  std::vector<std::pair<std::string, double>> samples_;
  std::vector<std::pair<std::string, std::int64_t>> counts_;
};

/// Descriptive statistics of one metric across all trials.
struct MetricSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Aggregate of a Monte-Carlo run: per-metric sample vectors (in trial
/// order), counters, and wall-clock time.
class TrialResult {
 public:
  /// All samples of `metric`, ordered by trial index (empty if never
  /// recorded).
  const RVec& samples(std::string_view metric) const;

  /// Sum of all count() calls on `counter` (0 if never recorded).
  std::int64_t counter(std::string_view counter) const;

  /// mean/stddev/percentiles of `metric` via dsp/stats.
  MetricSummary summary(std::string_view metric) const;

  /// Metric names in first-recorded order (deterministic).
  const std::vector<std::string>& metric_names() const { return metric_names_; }
  /// Counter names in first-recorded order (deterministic).
  const std::vector<std::string>& counter_names() const {
    return counter_names_;
  }

  int trials() const { return trials_; }
  double wall_ms() const { return wall_ms_; }
  int threads_used() const { return threads_used_; }

 private:
  friend class MonteCarlo;
  void merge_in_order(std::vector<TrialRecorder>& records);

  std::vector<std::string> metric_names_;
  std::vector<RVec> metric_samples_;
  std::vector<std::string> counter_names_;
  std::vector<std::int64_t> counter_values_;
  int trials_ = 0;
  double wall_ms_ = 0.0;
  int threads_used_ = 1;
};

class MonteCarlo {
 public:
  struct Config {
    /// Worker threads; 0 = one per hardware thread, 1 = run inline on the
    /// calling thread (no pool).
    int threads = 0;
    /// Base seed of the run; trial i uses derive_seed(base_seed, i).
    std::uint64_t base_seed = 1;
    /// Trials per scheduled task (scheduling granularity only — never
    /// affects results). 0 = pick automatically.
    int chunk = 0;
  };

  MonteCarlo() : MonteCarlo(Config{}) {}
  explicit MonteCarlo(Config config);

  using TrialFn = std::function<void(const TrialContext&, TrialRecorder&)>;

  /// Run `n_trials` trials and aggregate. Rethrows the first exception any
  /// trial threw (after all scheduled work drained).
  TrialResult run(int n_trials, const TrialFn& fn) const;

  /// The worker count run() will use.
  int threads() const;

  const Config& config() const { return config_; }

 private:
  Config config_;
};

}  // namespace uwb::runner
