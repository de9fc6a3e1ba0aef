// perfbench: the repository benchmark program (README.md in this directory).
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// Runs one named workload closed-loop on one thread for --seconds, checks
// every round's outputs, and prints a report line followed by the result
// object as the last line of stdout. --trace 0 reports the end-to-end
// metrics; --trace 1 the per-layer metrics. Exits 0 when every check
// passed, 1 when one failed, 2 on a bad command line.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "dsp/stats.hpp"
#include "example_util.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "simd/simd.hpp"

namespace perfbench {

using namespace uwb;

// --- ObsMark -----------------------------------------------------------------

ObsMark ObsMark::now() {
  const obs::Snapshot snap = obs::MetricsRegistry::instance().aggregate();
  ObsMark mark;
  for (const obs::Snapshot::SpanTotal& s : snap.spans)
    mark.spans[s.name] = {s.count, s.total_ms};
  for (const auto& [name, value] : snap.counters) mark.counters[name] = value;
  return mark;
}

ObsMark ObsMark::since(const ObsMark& earlier) const {
  ObsMark d = *this;
  for (const auto& [name, s] : earlier.spans) {
    d.spans[name].count -= s.count;
    d.spans[name].ms -= s.ms;
  }
  for (const auto& [name, v] : earlier.counters) d.counters[name] -= v;
  return d;
}

void ObsMark::add(const ObsMark& other) {
  for (const auto& [name, s] : other.spans) {
    spans[name].count += s.count;
    spans[name].ms += s.ms;
  }
  for (const auto& [name, v] : other.counters) counters[name] += v;
}

ObsMark::SpanTally ObsMark::span(const std::string& name) const {
  const auto it = spans.find(name);
  return it == spans.end() ? SpanTally{} : it->second;
}

std::uint64_t ObsMark::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

Options parse_options(int argc, char** argv) {
  std::string names;
  for (const std::string& n : workload_names())
    names += (names.empty() ? "" : "|") + n;
  const std::string usage = "perfbench --workload " + names +
                            " [--seed N] [--seconds 1..600] [--trace 0|1]";
  examples::FlagParser p(argc, argv, usage);
  Options opt;
  while (p.next()) {
    if (p.is("--workload")) {
      opt.workload = p.value();
      const auto& known = workload_names();
      if (std::find(known.begin(), known.end(), opt.workload) == known.end())
        p.fail("unknown workload '%s'", opt.workload.c_str());
    } else if (p.is("--seed")) {
      opt.seed = p.seed_value();
    } else if (p.is("--seconds")) {
      opt.seconds = static_cast<int>(p.int_value(1, 600));
    } else if (p.is("--trace")) {
      opt.trace = p.int_value(0, 1) == 1;
    } else {
      p.unknown();
    }
  }
  if (opt.workload.empty()) p.fail("--workload is required");
  return opt;
}

/// Set-ups per untraced run; setup_s is their median. The first precedes
/// the first timed round; the others repeat it at evenly spaced rounds of
/// the scored prefix, so the median spans the run rather than one instant.
constexpr std::uint64_t kSetups = 9;
/// Rounds every untraced run times at least: p95 then has >= 10 samples
/// above it.
constexpr std::uint64_t kMinTimedRounds = 200;
/// Untraced rounds (and about as many traced ones) every traced run times
/// at least.
constexpr std::uint64_t kMinTracedRounds = 20;
/// Largest distance error [m] at which an estimate counts as a detection.
constexpr double kMatchRadiusM = 1.5;

/// Accuracy, work and digest over the scored prefix.
struct Score {
  std::uint64_t rounds = 0;
  std::uint64_t failed = 0;  // no ranging result, or a failed check
  std::uint64_t ok_reports = 0, matched = 0;
  std::vector<double> abs_err_m;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  // Exact work counts.
  std::uint64_t frames_tx = 0, realized = 0, delivered = 0, culled = 0,
                below = 0, path_hits = 0, path_misses = 0;
  ObsMark obs;
};

/// Everything one run accumulates.
struct Run {
  std::uint64_t attempted = 0;
  std::uint64_t check_failures = 0;  // rounds failing an output check
  std::vector<std::string> first_errors;
  std::uint64_t reference_checks = 0;
  Score score;
  bool scoring = false;  // untraced runs score their first rounds
  /// Thread CPU time of each set-up [s].
  std::vector<double> setups;
};

void set_up(Workload& w, Run& run) {
  const double t0 = thread_seconds();
  w.set_up();
  run.setups.push_back(thread_seconds() - t0);
}

/// Output checks every round passes: one report per configured responder
/// in id order, and only finite estimates.
void check_round(const Round& r, const Workload& w,
                 std::vector<std::string>& errors) {
  const auto& reports = r.out.responder_reports;
  if (reports.size() != w.responders()) {
    errors.push_back("round reported " + std::to_string(reports.size()) +
                     " responders of " + std::to_string(w.responders()));
  } else {
    for (std::size_t i = 0; i < reports.size(); ++i)
      if (reports[i].id != static_cast<int>(i)) {
        errors.push_back("responder reports out of id order");
        break;
      }
  }
  if (r.out.payload_decoded && !std::isfinite(r.out.d_twr_m))
    errors.push_back("non-finite d_twr");
  for (const ranging::ResponderEstimate& e : r.out.estimates)
    if (!std::isfinite(e.distance_m)) {
      errors.push_back("non-finite estimate");
      break;
    }
  if (r.has_result && (!std::isfinite(r.solver_fix.position.x) ||
                       !std::isfinite(r.solver_fix.position.y)))
    errors.push_back("non-finite position fix");
}

void score_round(const Round& r, bool check_failed, Score& s) {
  ++s.rounds;
  if (!r.has_result || check_failed) ++s.failed;
  for (const ranging::ResponderReport& rep : r.out.responder_reports) {
    if (rep.status != ranging::RangingStatus::kOk) continue;
    ++s.ok_reports;
    const auto truth =
        std::find_if(r.out.truths.begin(), r.out.truths.end(),
                     [&rep](const ranging::ResponderTruth& t) {
                       return t.id == rep.id;
                     });
    if (truth == r.out.truths.end()) continue;
    double best = INFINITY;
    for (const ranging::ResponderEstimate& e : r.out.estimates)
      best = std::min(best, std::abs(e.distance_m - truth->true_distance_m));
    if (best < kMatchRadiusM) {
      ++s.matched;
      s.abs_err_m.push_back(best);
    }
  }
  s.digest = hash_combine(s.digest, outcome_digest(r.out));
  if (r.has_result) {
    s.digest = hash_combine(s.digest, double_bits(r.solver_fix.position.x));
    s.digest = hash_combine(s.digest, double_bits(r.solver_fix.position.y));
  }
  s.frames_tx += r.medium.frames_transmitted;
  s.realized += r.medium.channels_realized;
  s.delivered += r.medium.frames_delivered;
  s.culled += r.medium.receivers_culled;
  s.below += r.medium.below_threshold;
  s.path_hits += r.paths_after.hits - r.paths_before.hits;
  s.path_misses += r.paths_after.misses - r.paths_before.misses;
}

/// Check (and, while scoring, score) the rounds of one finished batch,
/// re-running the sampled ones on the unculled reference medium.
void settle_batch(const std::vector<Round>& batch, const Workload& w,
                  const ObsMark& in_round, Run& run,
                  std::vector<std::vector<std::string>>& replay_errors) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Round& r = batch[i];
    std::vector<std::string> errors = std::move(replay_errors[i]);
    check_round(r, w, errors);
    if (auto ref = w.unculled_rerun(r, run.attempted)) {
      ++run.reference_checks;
      if (outcome_digest(*ref) != outcome_digest(r.out))
        errors.push_back("culled round differs from the unculled reference");
    }
    ++run.attempted;
    if (!errors.empty()) {
      ++run.check_failures;
      if (run.first_errors.size() < 5)
        run.first_errors.push_back("round " + std::to_string(run.attempted) +
                                   ": " + errors.front());
    }
    if (run.scoring) score_round(r, !errors.empty(), run.score);
  }
  if (run.scoring) run.score.obs.add(in_round);
}

struct Phase {
  std::vector<double> round_s;
  double timed_s = 0.0;
};

/// Replay the rounds of one traced batch into `tally`, one error list per
/// round. `in_round` holds the batch's own span and counter totals and
/// `batch_s` the runner call's thread CPU time.
void replay_batch(const std::vector<Round>& batch, const Workload& w,
                  const ObsMark& in_round, double batch_s, LayerTally& tally,
                  std::vector<std::vector<std::string>>& errors) {
  obs::FlightRecorder& fr = obs::FlightRecorder::instance();
  const std::vector<obs::FrRecord> events = fr.collect();
  if (fr.dropped_events() != 0)
    errors.front().push_back("flight recorder dropped events");
  fr.reset();
  const ObsMark replay_start = ObsMark::now();
  double rounds_s = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Round& r = batch[i];
    std::vector<obs::FrRecord> mine;
    for (const obs::FrRecord& e : events)
      if (e.session == r.seed) mine.push_back(e);
    replay_round(r, w.replay_config(r), w.solver(), mine, tally, errors[i]);
    ++tally.rounds;
    tally.round_s.push_back(r.cpu_s);
    rounds_s += r.cpu_s;
    tally.lookups += (r.paths_after.hits + r.paths_after.misses) -
                     (r.paths_before.hits + r.paths_before.misses);
    tally.hits += r.paths_after.hits - r.paths_before.hits;
    tally.misses += r.paths_after.misses - r.paths_before.misses;
    tally.entries_sum += static_cast<double>(r.paths_after.entries);
    tally.frames_tx += r.medium.frames_transmitted;
    tally.delivered += r.medium.frames_delivered;
    tally.culled += r.medium.receivers_culled;
    tally.below += r.medium.below_threshold;
    tally.realized += r.medium.channels_realized;
  }
  tally.replay.add(ObsMark::now().since(replay_start));
  tally.in_round.add(in_round);
  if (w.uses_runner()) tally.runner_s += batch_s - rounds_s;
}

/// Moves the calling thread round-robin over the cores it may run on, one
/// core per slice of kCoreSliceS seconds, and restores its affinity when
/// destroyed. On a shared host one core can run 20-50% slower than the
/// others for seconds at a time (another tenant busy on the same physical
/// core), and the scheduler leaves a lone busy thread where it is, so an
/// unpinned run could read slow from start to end. Visiting every core
/// evenly gives each run the same mix of them. Inert with a single core or
/// where the affinity cannot be set.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &original_)) cores_.push_back(c);
    if (cores_.size() < 2) cores_.clear();
    move();
  }
  ~CoreRotation() {
    if (moved_) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  /// Move on to the next core once the current slice has had its time.
  /// Called between batches, never inside a timed interval.
  void step() {
    if (std::chrono::duration<double>(Clock::now() - slice_start_).count() >=
        kCoreSliceS)
      move();
  }

  /// Cores visited (0 when inert).
  std::size_t cores() const { return cores_.size(); }

 private:
  static constexpr double kCoreSliceS = 0.1;

  void move() {
    if (cores_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores_[next_++ % cores_.size()], &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      cores_.clear();
      return;
    }
    moved_ = true;
    slice_start_ = Clock::now();
  }

  cpu_set_t original_;
  std::vector<int> cores_;
  std::size_t next_ = 0;
  bool moved_ = false;
  Clock::time_point slice_start_;
};

/// Run batches until `seconds` of wall time have passed and `untraced`
/// holds at least `min_rounds` rounds, moving over the cores between
/// batches. Untraced runs score the first `score_until` rounds and repeat
/// the set-up through them. With a `tally` the batches alternate untraced
/// and traced, so the tracing overhead is measured under the same machine
/// conditions; traced batches are replayed into the tally.
void run_rounds(Workload& w, double seconds, std::uint64_t min_rounds,
                std::uint64_t score_until, CoreRotation& cores, Run& run,
                Phase& untraced, LayerTally* tally) {
  const Clock::time_point start = Clock::now();
  for (std::uint64_t b = 0;
       std::chrono::duration<double>(Clock::now() - start).count() < seconds ||
       untraced.round_s.size() < min_rounds;
       ++b) {
    cores.step();
    const bool traced = tally != nullptr && b % 2 == 1;
    run.scoring = tally == nullptr && run.attempted < score_until;
    if (tally == nullptr && run.setups.size() < kSetups &&
        run.attempted == run.setups.size() * score_until / (kSetups - 1))
      set_up(w, run);

    std::vector<Round> batch;
    const ObsMark before = ObsMark::now();
    obs::FlightRecorder::set_enabled(traced);
    const double batch_s = w.run(traced, batch);
    obs::FlightRecorder::set_enabled(false);
    const ObsMark in_round = ObsMark::now().since(before);

    std::vector<std::vector<std::string>> errors(batch.size());
    if (traced) {
      replay_batch(batch, w, in_round, batch_s, *tally, errors);
    } else {
      untraced.timed_s += batch_s;
      for (const Round& r : batch) untraced.round_s.push_back(r.cpu_s);
    }
    settle_batch(batch, w, in_round, run, errors);
  }
}

/// A metric as printed: name, unit, value.
struct Metric {
  std::string name, unit;
  double value;
};

double percentile(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : dsp::percentile(xs, p);
}

/// Peak resident set of this process image [MB]: VmHWM, which unlike
/// getrusage's maxrss does not include the parent's peak from before exec
/// (run.py starts this program from Python). getrusage when /proc is
/// unreadable.
double peak_rss_mb() {
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

std::vector<Metric> end_to_end(const Phase& timed,
                               const std::vector<double>& setups,
                               const Score& s) {
  const double rounds = static_cast<double>(timed.round_s.size());
  return {
      {"rounds_per_s", "1/s", rounds / timed.timed_s},
      {"round_ms_p50", "ms", 1e3 * percentile(timed.round_s, 50.0)},
      {"round_ms_p95", "ms", 1e3 * percentile(timed.round_s, 95.0)},
      {"setup_s", "s", dsp::median(setups)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"ok_frac", "fraction",
       1.0 - static_cast<double>(s.failed) / static_cast<double>(s.rounds)},
      {"detected_frac", "fraction",
       static_cast<double>(s.matched) / static_cast<double>(s.ok_reports)},
      {"range_err_p90_m", "m", percentile(s.abs_err_m, 90.0)},
  };
}

std::vector<Metric> per_layer(const LayerTally& t, const Phase& untraced) {
  const double n = t.rounds;
  const ObsMark& in = t.in_round;
  const ObsMark& rp = t.replay;
  const auto us_per_round = [n](double ms) { return 1e3 * ms / n; };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto in_us = [&](const char* span) {
    return us_per_round(in.span(span).ms);
  };
  const auto rp_us = [&](const char* span) {
    return us_per_round(rp.span(span).ms);
  };

  double round_s = 0.0;
  for (const double s : t.round_s) round_s += s;
  const double round_us = 1e6 * round_s / n;

  const double lookup_us = rp_us("perfbench.geom_lookup");
  const double solve_us = ratio(1e3 * rp.span("perfbench.geom_solve").ms,
                                static_cast<double>(t.solves));
  // A lookup that missed also paid one solve.
  const double geom_us =
      lookup_us + static_cast<double>(t.misses) / n * solve_us;
  const double realize_us = rp_us("perfbench.realize") - lookup_us;
  const double cir_us = in_us("cir_synthesis");
  const double detect_us = rp_us("perfbench.detect");
  const double interpret_us = rp_us("perfbench.interpret");
  const double floorplan_us = in_us("perfbench.floorplan");
  const double construct_us = in_us("perfbench.construct");
  const double multilaterate_us = rp_us("perfbench.multilaterate");
  const double layers_us = floorplan_us + construct_us + geom_us + realize_us +
                           cir_us + detect_us + interpret_us + multilaterate_us;
  const auto cirs = static_cast<double>(in.span("cir_synthesis").count);
  const auto detects = static_cast<double>(in.span("detect").count);
  const auto realized = static_cast<double>(t.realized);

  return {
      {"geom.lookups_per_round", "count", static_cast<double>(t.lookups) / n},
      {"geom.hit_frac", "fraction",
       ratio(static_cast<double>(t.hits), static_cast<double>(t.lookups))},
      {"geom.cache_entries", "count", t.entries_sum / n},
      {"geom.lookup_us_per_round", "us", lookup_us},
      {"geom.solve_us_per_call", "us", solve_us},
      {"channel.realized_per_round", "count", realized / n},
      {"channel.taps_per_realization", "count",
       ratio(static_cast<double>(t.replayed_taps),
             static_cast<double>(t.replayed))},
      {"channel.realize_us_per_round", "us", realize_us},
      {"channel.diffuse_us_per_round", "us", rp_us("perfbench.diffuse")},
      {"channel.useful_frac", "fraction",
       ratio(static_cast<double>(t.useful), realized)},
      {"sim.frames_tx_per_round", "count", static_cast<double>(t.frames_tx) / n},
      {"sim.delivered_per_round", "count", static_cast<double>(t.delivered) / n},
      {"sim.culled_per_round", "count", static_cast<double>(t.culled) / n},
      {"sim.below_threshold_per_round", "count",
       static_cast<double>(t.below) / n},
      {"sim.events_per_round", "count",
       static_cast<double>(in.counter("sim_events")) / n},
      {"sim.floorplan_us_per_round", "us", floorplan_us},
      {"sim.residual_us_per_round", "us", round_us - layers_us},
      {"dw1000.cirs_per_round", "count", cirs / n},
      {"dw1000.cir_us_per_round", "us", cir_us},
      {"dw1000.arrivals_per_cir", "count",
       ratio(static_cast<double>(t.arrivals), cirs)},
      {"dw1000.cir_read_frac", "fraction", ratio(detects, cirs)},
      {"ranging.construct_us_per_round", "us", construct_us},
      {"ranging.detect_us_per_round", "us", detect_us},
      {"ranging.detect_iterations", "count",
       ratio(static_cast<double>(in.span("peak_pick").count), detects)},
      {"dsp.upsample_us_per_round", "us", in_us("upsample")},
      {"dsp.fft_us_per_round", "us", in_us("fft")},
      {"ranging.bank_correlate_us_per_round", "us", in_us("bank_correlate")},
      {"ranging.peak_pick_us_per_round", "us", in_us("peak_pick")},
      {"ranging.subtract_update_us_per_round", "us", in_us("subtract_update")},
      {"ranging.interpret_us_per_round", "us", interpret_us},
      {"loc.multilaterate_us_per_fix", "us", multilaterate_us},
      {"runner.overhead_us_per_round", "us", 1e6 * t.runner_s / n},
      {"obs.trace_overhead_frac", "fraction",
       percentile(t.round_s, 50.0) / percentile(untraced.round_s, 50.0) - 1.0},
      {"layer.closure", "fraction", layers_us / round_us},
  };
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += quote(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quote(m.unit) + "}";
  }
  return out + "}";
}

/// Build, machine and run stamp carried by every report. `cores` is the
/// number of cores the run moved over (0: it stayed where it was placed).
std::string environment(const Options& opt, std::size_t cores) {
#ifdef __clang__
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  return "{\"build_type\": " + quote(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + quote(compiler) + ", \"simd\": " +
         quote(simd::level_name(simd::active_level())) +
         ", \"threads\": 1, \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cores\": " + std::to_string(cores) +
         ", \"seed\": " + std::to_string(opt.seed) + ", \"workload\": " +
         quote(opt.workload) + ", \"seconds\": " + std::to_string(opt.seconds) +
         ", \"trace\": " + (opt.trace ? "1" : "0") + "}";
}

std::string work_object(const Score& s) {
  const auto u = [](std::uint64_t v) { return std::to_string(v); };
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(s.digest));
  return "{\"rounds\": " + u(s.rounds) + ", \"frames_transmitted\": " +
         u(s.frames_tx) + ", \"channels_realized\": " + u(s.realized) +
         ", \"frames_delivered\": " + u(s.delivered) +
         ", \"receivers_culled\": " + u(s.culled) +
         ", \"below_threshold\": " + u(s.below) +
         ", \"cirs_synthesized\": " + u(s.obs.span("cir_synthesis").count) +
         ", \"detect_calls\": " + u(s.obs.span("detect").count) +
         ", \"detect_iterations\": " + u(s.obs.span("peak_pick").count) +
         ", \"path_cache_hits\": " + u(s.path_hits) +
         ", \"path_cache_misses\": " + u(s.path_misses) +
         ", \"sim_events\": " + u(s.obs.counter("sim_events")) +
         ", \"outcome_digest\": \"" + digest + "\"}";
}

int run_benchmark(const Options& opt) {
  std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed);
  Run run;
  std::vector<Metric> metrics;
  CoreRotation cores;
  if (!opt.trace) {
    const std::uint64_t scored = w->scored_rounds();
    Phase timed;
    run_rounds(*w, opt.seconds, std::max(kMinTimedRounds, scored), scored,
               cores, run, timed, nullptr);
    metrics = end_to_end(timed, run.setups, run.score);
    std::printf("perfbench report: {\"env\": %s, \"timed_rounds\": %zu, "
                "\"timed_s\": %s, \"failed_frac\": %s, \"attempted\": %llu, "
                "\"reference_checks\": %llu, \"work\": %s}\n",
                environment(opt, cores.cores()).c_str(),
                timed.round_s.size(), number(timed.timed_s).c_str(),
                number(static_cast<double>(run.score.failed) /
                       static_cast<double>(run.score.rounds))
                    .c_str(),
                static_cast<unsigned long long>(run.score.rounds),
                static_cast<unsigned long long>(run.reference_checks),
                work_object(run.score).c_str());
  } else {
    set_up(*w, run);
    Phase untraced;
    LayerTally tally;
    run_rounds(*w, opt.seconds, kMinTracedRounds, 0, cores, run, untraced,
               &tally);
    metrics = per_layer(tally, untraced);
    std::printf("perfbench report: {\"env\": %s, \"untraced_rounds\": %zu, "
                "\"traced_rounds\": %d, \"reference_checks\": %llu}\n",
                environment(opt, cores.cores()).c_str(),
                untraced.round_s.size(), tally.rounds,
                static_cast<unsigned long long>(run.reference_checks));
  }

  for (const std::string& e : run.first_errors)
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  const bool correct = run.check_failures == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.check_failures),
              metrics_object(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse_options(argc, argv);
  return perfbench::run_benchmark(opt);
}
