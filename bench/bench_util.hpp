// Shared helpers for the experiment harnesses: argument handling, table
// printing, ASCII series plotting, canonical scenario builders, Monte-Carlo
// glue, and machine-readable JSON reports.
//
// Every bench binary regenerates one table or figure of the paper. Binaries
// accept:
//   --trials N    scale the Monte-Carlo count (defaults keep the full suite
//                 to a couple of minutes; paper-scale counts noted per bench)
//   --threads N   Monte-Carlo worker threads (default = all hardware
//                 threads; results are bit-identical for any value)
//   --json PATH   additionally emit a JSON record of the run's parameters
//                 and metrics (the perf trajectory CI archives as
//                 BENCH_*.json — see DESIGN.md for the schema)
//   --trace PATH  enable span tracing and write a Chrome trace_event JSON
//                 (open in chrome://tracing or ui.perfetto.dev)
// An unknown flag, a missing value or one out of range prints the usage and
// exits 2.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "example_util.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "ranging/session.hpp"
#include "runner/monte_carlo.hpp"
#include "simd/simd.hpp"

namespace uwb::bench {

/// Command-line options shared by every bench binary.
struct BenchOptions {
  int trials = 0;
  int threads = 0;          // 0 = hardware concurrency
  std::string json_path;    // empty = no JSON output
  std::string trace_path;   // empty = tracing off
  std::string metrics_path; // empty = no Prometheus metrics file
  std::string flight_record_path;  // empty = flight recorder off
};

/// Usage of the flags parse_standard_flag accepts, for a bench's usage line.
inline constexpr const char* kStandardUsage =
    "[--trials 1..1000000] [--threads 1..1024] [--json PATH]\n"
    "       [--trace PATH] [--metrics PATH] [--flight-record PATH]";

/// For a bench with flags of its own, driven by its examples::FlagParser
/// loop: if the current argument is `--trials N`, `--threads N`,
/// `--json PATH`, `--trace PATH` (turns on span tracing process-wide),
/// `--metrics PATH` (Prometheus text dump of the merged metrics snapshot)
/// or `--flight-record PATH` (turns on the flight recorder process-wide;
/// JSONL written by write_if_requested), consumes it with its value and
/// returns true; returns false for any other argument. A missing or
/// out-of-range value prints the usage and exits 2.
inline bool parse_standard_flag(examples::FlagParser& p, BenchOptions& opts) {
  if (p.is("--trials")) {
    opts.trials = static_cast<int>(p.int_value(1, 1'000'000));
  } else if (p.is("--threads")) {
    opts.threads = static_cast<int>(p.int_value(1, 1024));
  } else if (p.is("--json")) {
    opts.json_path = p.value();
  } else if (p.is("--trace")) {
    opts.trace_path = p.value();
    obs::set_tracing_enabled(true);
  } else if (p.is("--metrics")) {
    opts.metrics_path = p.value();
  } else if (p.is("--flight-record")) {
    opts.flight_record_path = p.value();
    obs::FlightRecorder::set_enabled(true);
  } else {
    return false;
  }
  return true;
}

/// Parse the command line of a bench that takes only the standard flags.
/// Any other argument, or a missing or out-of-range value, prints the
/// usage and exits 2.
inline BenchOptions parse_options(int argc, char** argv, int default_trials) {
  BenchOptions opts;
  opts.trials = default_trials;
  const char* slash = std::strrchr(argv[0], '/');
  examples::FlagParser p(
      argc, argv,
      std::string(slash != nullptr ? slash + 1 : argv[0]) + " " +
          kStandardUsage);
  while (p.next())
    if (!parse_standard_flag(p, opts)) p.unknown();
  return opts;
}

/// Monte-Carlo engine configured from the command line.
inline runner::MonteCarlo monte_carlo(const BenchOptions& opts,
                                      std::uint64_t base_seed) {
  runner::MonteCarlo::Config cfg;
  cfg.threads = opts.threads;
  cfg.base_seed = base_seed;
  return runner::MonteCarlo(cfg);
}

/// Peak resident set of this process [MB]: VmHWM, which unlike getrusage's
/// maxrss leaves out a parent's peak from before exec; getrusage when /proc
/// is unreadable.
inline double peak_rss_mb() {
  double kb = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr)
      if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
    std::fclose(f);
  }
  if (kb <= 0.0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    kb = static_cast<double>(usage.ru_maxrss);
  }
  return kb / 1024.0;
}

/// Machine-readable record of one bench run:
///   {"bench": ..., "params": {...}, "metrics": {...},
///    "wall_ms": ..., "trials": ...}
/// Params describe the configuration (inputs), metrics the results
/// (outputs). Insertion order is preserved so records diff cleanly.
class JsonReport {
 public:
  JsonReport(std::string bench_name, int trials)
      : bench_(std::move(bench_name)), trials_(trials),
        start_(std::chrono::steady_clock::now()) {
    // Every record carries the SIMD dispatch level it ran at, so perf
    // trajectories (and the forced-level CI legs) are attributable.
    param("simd_level", simd::level_name(simd::active_level()));
  }

  void param(const std::string& name, double value) {
    params_.emplace_back(name, number(value));
  }
  void param(const std::string& name, const std::string& value) {
    params_.emplace_back(name, quote(value));
  }
  void metric(const std::string& name, double value) {
    metrics_.emplace_back(name, number(value));
  }

  /// Write the JSON record to opts.json_path and/or the Chrome trace to
  /// opts.trace_path (each a no-op when its flag was not given). Returns
  /// false on any I/O failure.
  bool write_if_requested(const BenchOptions& opts) const {
    bool ok = true;
    if (!opts.json_path.empty()) {
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start_)
                                 .count();
      std::FILE* f = std::fopen(opts.json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", opts.json_path.c_str());
        return false;
      }
      std::fprintf(f, "{\n  \"bench\": %s,\n", quote(bench_).c_str());
      write_object(f, "params", params_);
      std::vector<Field> metrics = metrics_;
      append_obs_metrics(metrics);
      write_object(f, "metrics", metrics);
      std::fprintf(f, "  \"wall_ms\": %s,\n  \"trials\": %d\n}\n",
                   number(wall_ms).c_str(), trials_);
      ok = std::fclose(f) == 0;
      if (ok) std::printf("\n[json written to %s]\n", opts.json_path.c_str());
    }
    if (!opts.trace_path.empty()) {
      if (obs::write_chrome_trace(opts.trace_path)) {
        std::printf("[trace written to %s]\n", opts.trace_path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", opts.trace_path.c_str());
        ok = false;
      }
    }
    if (!opts.metrics_path.empty()) {
      const std::string text =
          obs::MetricsRegistry::instance().aggregate().to_prometheus();
      std::FILE* f = std::fopen(opts.metrics_path.c_str(), "w");
      bool wrote = false;
      if (f != nullptr) {
        wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
        wrote = std::fclose(f) == 0 && wrote;
      }
      if (wrote) {
        std::printf("[metrics written to %s]\n", opts.metrics_path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", opts.metrics_path.c_str());
        ok = false;
      }
    }
    if (!opts.flight_record_path.empty()) {
      if (obs::FlightRecorder::instance().write_jsonl(
              opts.flight_record_path)) {
        std::printf("[flight recording written to %s]\n",
                    opts.flight_record_path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n",
                     opts.flight_record_path.c_str());
        ok = false;
      }
    }
    return ok;
  }

  /// Record the standard summary of one Monte-Carlo metric.
  void summarize(const runner::TrialResult& result,
                 const std::string& metric_name) {
    const auto s = result.summary(metric_name);
    metric(metric_name + "_mean", s.mean);
    metric(metric_name + "_stddev", s.stddev);
    metric(metric_name + "_p50", s.p50);
    metric(metric_name + "_p90", s.p90);
    metric(metric_name + "_count", static_cast<double>(s.count));
  }

  /// Record the Monte-Carlo engine bookkeeping of a run (wall time and
  /// thread count — `mc_` prefixed, skipped by the determinism diff).
  void runner_metrics(const runner::TrialResult& result) {
    metric("mc_wall_ms", result.wall_ms());
    metric("mc_threads", static_cast<double>(result.threads_used()));
  }

 private:
  using Field = std::pair<std::string, std::string>;

  // Observability snapshot of the whole run, merged over every worker
  // shard (obs::MetricsRegistry). Cache hit/miss counters keep their PR 2
  // `cache_*` keys; everything else is prefixed `obs_`. Both prefixes are
  // scheduling/thread-count dependent (wall-clock or per-thread memo
  // traffic), so the CI determinism check skips them, like `mc_`.
  static void append_obs_metrics(std::vector<Field>& metrics) {
    const obs::Snapshot snap = obs::MetricsRegistry::instance().aggregate();

    // Memo-cache counters (pulse templates, detector template banks, FFT
    // plans). Emitted explicitly so the key set stays stable even when a
    // counter never fired (or instrumentation is compiled out).
    const auto add_cache = [&metrics, &snap](const char* name) {
      const double hits = static_cast<double>(
          snap.counter(std::string("cache_") + name + "_hits"));
      const double misses = static_cast<double>(
          snap.counter(std::string("cache_") + name + "_misses"));
      metrics.emplace_back(std::string("cache_") + name + "_hits",
                           number(hits));
      metrics.emplace_back(std::string("cache_") + name + "_misses",
                           number(misses));
      const double lookups = hits + misses;
      metrics.emplace_back(std::string("cache_") + name + "_hit_rate",
                           number(lookups > 0.0 ? hits / lookups : 0.0));
    };
    add_cache("pulse");
    add_cache("bank");
    add_cache("fft_plan");

    // Remaining counters and all gauges, under the obs_ prefix.
    for (const auto& [name, value] : snap.counters)
      if (name.rfind("cache_", 0) != 0)
        metrics.emplace_back("obs_" + name,
                             number(static_cast<double>(value)));
    for (const auto& [name, value] : snap.gauges)
      metrics.emplace_back("obs_" + name, number(value));

    // Per-stage span totals (the nested pipeline timings).
    for (const auto& span : snap.spans) {
      metrics.emplace_back("obs_span_" + span.name + "_count",
                           number(static_cast<double>(span.count)));
      metrics.emplace_back("obs_span_" + span.name + "_total_ms",
                           number(span.total_ms));
    }

    // Per-trial latency percentiles from the runner's merged histogram.
    if (const obs::Histogram* h = snap.histogram("trial_latency_ms")) {
      metrics.emplace_back("obs_trial_latency_count",
                           number(static_cast<double>(h->count())));
      metrics.emplace_back("obs_trial_latency_p50_ms",
                           number(h->quantile(0.50)));
      metrics.emplace_back("obs_trial_latency_p90_ms",
                           number(h->quantile(0.90)));
      metrics.emplace_back("obs_trial_latency_p99_ms",
                           number(h->quantile(0.99)));
      metrics.emplace_back("obs_trial_latency_max_ms", number(h->max()));
      metrics.emplace_back("obs_trial_latency_mean_ms", number(h->mean()));
    }

    // Per-frame delivery fan-out from the spatially-sharded medium.
    if (const obs::Histogram* h = snap.histogram("medium_frame_fanout")) {
      metrics.emplace_back("obs_medium_fanout_count",
                           number(static_cast<double>(h->count())));
      metrics.emplace_back("obs_medium_fanout_p50", number(h->quantile(0.50)));
      metrics.emplace_back("obs_medium_fanout_p90", number(h->quantile(0.90)));
      metrics.emplace_back("obs_medium_fanout_max", number(h->max()));
      metrics.emplace_back("obs_medium_fanout_mean", number(h->mean()));
    }

    // Memory high-water mark of the whole run (CI caps it: a per-thread
    // memo that grows with the workload fails the gate).
    metrics.emplace_back("obs_peak_rss_mb", number(peak_rss_mb()));
  }

  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out.push_back(c);
      }
    }
    out.push_back('"');
    return out;
  }

  static void write_object(std::FILE* f, const char* key,
                           const std::vector<Field>& fields) {
    std::fprintf(f, "  \"%s\": {", key);
    for (std::size_t i = 0; i < fields.size(); ++i)
      std::fprintf(f, "%s\n    %s: %s", i ? "," : "",
                   quote(fields[i].first).c_str(), fields[i].second.c_str());
    std::fprintf(f, "%s},\n", fields.empty() ? "" : "\n  ");
  }

  std::string bench_;
  int trials_;
  std::chrono::steady_clock::time_point start_;
  std::vector<Field> params_;
  std::vector<Field> metrics_;
};

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void subheading(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

/// Print a horizontal ASCII profile of a magnitude series: one row per
/// (downsampled) point with a proportional bar, for eyeballing CIR shapes in
/// a terminal.
inline void ascii_profile(const std::vector<double>& xs,
                          const std::vector<double>& ys,
                          const char* x_label, int max_rows = 40,
                          int bar_width = 60) {
  const std::size_t n = ys.size();
  if (n == 0) return;
  const double peak = *std::max_element(ys.begin(), ys.end());
  const std::size_t stride =
      std::max<std::size_t>(1, n / static_cast<std::size_t>(max_rows));
  for (std::size_t i = 0; i < n; i += stride) {
    const int bar =
        peak > 0 ? static_cast<int>(ys[i] / peak * bar_width + 0.5) : 0;
    std::printf("%10.2f %-8s |%s\n", xs[i], x_label,
                std::string(static_cast<std::size_t>(bar), '#').c_str());
  }
}

/// Hallway scenario matching the paper's measurement environment: a 2.4 m
/// corridor. Nodes sit slightly off the centre line so the two side-wall
/// reflections have distinct path lengths (perfectly centred nodes would
/// make them coincide and coherently sum). The 15 dB effective reflection
/// loss accounts for the 2-D image-source model concentrating specular
/// energy that in reality spreads in elevation and over antenna patterns
/// (EXPERIMENTS.md discusses this calibration).
inline ranging::ScenarioConfig hallway_scenario(std::uint64_t seed) {
  ranging::ScenarioConfig cfg;
  cfg.room = geom::Room::hallway(40.0, 2.4, /*reflection_loss_db=*/15.0);
  cfg.initiator_position = {2.0, 1.0};
  cfg.seed = seed;
  return cfg;
}

/// Place a responder along the hallway `distance_m` from the initiator of
/// hallway_scenario().
inline geom::Vec2 hallway_at(double distance_m) {
  return {2.0 + distance_m, 1.0};
}

/// Office scenario (rectangular room) for the localisation/NLOS studies.
inline ranging::ScenarioConfig office_scenario(std::uint64_t seed) {
  ranging::ScenarioConfig cfg;
  cfg.room = geom::Room::rectangular(12.0, 8.0, 10.0);
  cfg.initiator_position = {2.0, 4.0};
  cfg.seed = seed;
  return cfg;
}

/// Run `trials` independent concurrent-ranging rounds on the Monte-Carlo
/// engine. Each trial builds its own scenario seeded by
/// derive_seed(base_seed, trial) and runs exactly one round, so results are
/// bit-identical for any --threads value. `make_cfg(seed)` returns the
/// ScenarioConfig; `record(scenario, outcome, recorder)` scores the round.
template <typename MakeCfg, typename Record>
runner::TrialResult run_rounds(const BenchOptions& opts,
                               std::uint64_t base_seed, int trials,
                               MakeCfg&& make_cfg, Record&& record) {
  return monte_carlo(opts, base_seed)
      .run(trials, [&](const runner::TrialContext& ctx,
                       runner::TrialRecorder& rec) {
        ranging::ScenarioConfig cfg = make_cfg(ctx.seed);
        cfg.seed = ctx.seed;
        ranging::ConcurrentRangingScenario scenario(cfg);
        const ranging::RoundOutcome out = scenario.run_round();
        record(scenario, out, rec);
      });
}

}  // namespace uwb::bench
