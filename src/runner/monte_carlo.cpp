#include "runner/monte_carlo.hpp"

#include <algorithm>
#include <chrono>

#include "common/expects.hpp"
#include "common/random.hpp"
#include "dsp/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "runner/thread_pool.hpp"

namespace uwb::runner {

void TrialRecorder::sample(std::string_view metric, double value) {
  samples_.emplace_back(std::string(metric), value);
}

void TrialRecorder::count(std::string_view counter, std::int64_t delta) {
  counts_.emplace_back(std::string(counter), delta);
}

namespace {

template <typename T>
std::size_t name_slot(std::vector<std::string>& names,
                      std::vector<T>& values, const std::string& name) {
  const auto it = std::find(names.begin(), names.end(), name);
  if (it != names.end())
    return static_cast<std::size_t>(it - names.begin());
  names.push_back(name);
  values.emplace_back();
  return names.size() - 1;
}

}  // namespace

void TrialResult::merge_in_order(std::vector<TrialRecorder>& records) {
  // Trial-index order makes the merge independent of which worker ran
  // which trial — the heart of the determinism contract.
  for (TrialRecorder& rec : records) {
    for (const auto& [name, value] : rec.samples_)
      metric_samples_[name_slot(metric_names_, metric_samples_, name)]
          .push_back(value);
    for (const auto& [name, delta] : rec.counts_)
      counter_values_[name_slot(counter_names_, counter_values_, name)] +=
          delta;
  }
}

const RVec& TrialResult::samples(std::string_view metric) const {
  static const RVec empty;
  for (std::size_t i = 0; i < metric_names_.size(); ++i)
    if (metric_names_[i] == metric) return metric_samples_[i];
  return empty;
}

std::int64_t TrialResult::counter(std::string_view counter) const {
  for (std::size_t i = 0; i < counter_names_.size(); ++i)
    if (counter_names_[i] == counter) return counter_values_[i];
  return 0;
}

MetricSummary TrialResult::summary(std::string_view metric) const {
  const RVec& xs = samples(metric);
  MetricSummary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.mean = dsp::mean(xs);
  s.stddev = dsp::stddev(xs);
  s.min = *std::min_element(xs.begin(), xs.end());
  s.max = *std::max_element(xs.begin(), xs.end());
  s.p50 = dsp::percentile(xs, 50.0);
  s.p90 = dsp::percentile(xs, 90.0);
  s.p99 = dsp::percentile(xs, 99.0);
  return s;
}

MonteCarlo::MonteCarlo(Config config) : config_(config) {
  UWB_EXPECTS(config_.threads >= 0);
  UWB_EXPECTS(config_.chunk >= 0);
}

int MonteCarlo::threads() const {
  return config_.threads > 0 ? config_.threads
                             : ThreadPool::hardware_threads();
}

TrialResult MonteCarlo::run(int n_trials, const TrialFn& fn) const {
  UWB_EXPECTS(n_trials >= 0);
  UWB_EXPECTS(fn != nullptr);
  const auto start = std::chrono::steady_clock::now();

  std::vector<TrialRecorder> records(static_cast<std::size_t>(n_trials));
  const int workers = threads();
  UWB_OBS_GAUGE_SET("runner_threads", workers);

  const auto run_trial = [&](int i) {
    TrialContext ctx;
    ctx.trial_index = i;
    ctx.seed = derive_seed(config_.base_seed, static_cast<std::uint64_t>(i));
    // Per-trial wall time lands in the worker's shard; the registry merge
    // yields one process-wide latency histogram (obs_trial_latency_* in the
    // bench JSON).
    const std::uint64_t t0 = obs::monotonic_ns();
    {
      UWB_OBS_SPAN("trial");
      fn(ctx, records[static_cast<std::size_t>(i)]);
    }
    const double elapsed_ms =
        static_cast<double>(obs::monotonic_ns() - t0) / 1e6;
    obs::MetricsRegistry::instance()
        .local_shard()
        .histogram("trial_latency_ms", obs::latency_buckets_ms())
        .observe(elapsed_ms);
  };

  if (workers <= 1 || n_trials <= 1) {
    for (int i = 0; i < n_trials; ++i) run_trial(i);
  } else {
    // Small chunks keep the stealing granular enough to absorb uneven
    // trial costs; chunking only groups scheduling, never results.
    const int chunk =
        config_.chunk > 0
            ? config_.chunk
            : std::max(1, n_trials / (workers * 8));
    ThreadPool pool(workers);
    for (int begin = 0; begin < n_trials; begin += chunk) {
      const int end = std::min(n_trials, begin + chunk);
      pool.submit([&, begin, end] {
        for (int i = begin; i < end; ++i) run_trial(i);
      });
    }
    pool.wait_idle();
  }

  TrialResult result;
  result.trials_ = n_trials;
  result.threads_used_ = workers;
  result.merge_in_order(records);
  result.wall_ms_ = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return result;
}

}  // namespace uwb::runner
