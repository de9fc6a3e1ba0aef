// Extension A3 (paper future work): impact of non-line-of-sight on
// concurrent ranging. A reference responder at 3 m stays clear; the test
// responder at 8 m sits behind an obstacle whose attenuation is swept.
// Metrics: how often the test responder is still detected, and the distance
// bias that appears when the receiver locks onto a reflection instead of
// the buried direct path.
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "dsp/stats.hpp"
#include "dw1000/diagnostics.hpp"

namespace {

uwb::ranging::ScenarioConfig nlos_config(std::uint64_t seed, double atten) {
  using namespace uwb;
  ranging::ScenarioConfig cfg = bench::office_scenario(seed);
  cfg.room = geom::Room::rectangular(14.0, 8.0, 12.0);
  if (atten > 0.0)
    cfg.room.add_obstacle({{{7.0, 3.0}, {7.0, 5.0}}, atten});
  cfg.initiator_position = {2.0, 4.0};
  cfg.responders = {{0, {5.0, 4.0}}, {1, {10.0, 4.0}}};
  // Extract a few extra peaks so the weak NLOS response is surfaced even
  // when multipath of the near responder out-ranks it.
  cfg.detect_max_responses = 4;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uwb;
  const auto opts = bench::parse_options(argc, argv, 200);
  bench::JsonReport report("ext_nlos", opts.trials);
  bench::heading("Extension — NLOS impact on concurrent ranging");
  std::printf("(%d rounds per attenuation level)\n", opts.trials);

  const double d2_true = 8.0;
  std::printf("\n%-18s %-12s %-14s %-14s %-14s %s\n", "obstacle [dB]",
              "detected", "mean err [m]", "p95 |err| [m]", "decode rate",
              "fp/total [dB]");
  for (const double atten : {0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0}) {
    const std::uint64_t level_seed = 903 + static_cast<std::uint64_t>(atten);

    // Link diagnostics of the obstructed link alone (what the responder's
    // own receiver would report): the NLOS indicator from Sect. "future
    // work" instrumentation.
    const auto link_result = bench::run_rounds(
        opts, level_seed + 1, 30,
        [&](std::uint64_t seed) {
          ranging::ScenarioConfig link_cfg = nlos_config(seed, atten);
          link_cfg.responders = {{1, {10.0, 4.0}}};
          return link_cfg;
        },
        [](const ranging::ConcurrentRangingScenario&,
           const ranging::RoundOutcome& out, runner::TrialRecorder& rec) {
          if (out.completed)
            rec.sample("fp_ratio",
                       dw::analyze_cir(out.cir.taps).fp_to_total_db);
        });
    const auto& fp_ratios = link_result.samples("fp_ratio");

    const auto result = bench::run_rounds(
        opts, level_seed, opts.trials,
        [&](std::uint64_t seed) { return nlos_config(seed, atten); },
        [d2_true](const ranging::ConcurrentRangingScenario&,
                  const ranging::RoundOutcome& out,
                  runner::TrialRecorder& rec) {
          if (!out.payload_decoded) return;
          rec.count("rounds");
          // The detection nearest to the true distance, if within 2 m.
          double best_err = 2.0;
          bool found = false;
          for (std::size_t i = 1; i < out.estimates.size(); ++i) {
            const double err = out.estimates[i].distance_m - d2_true;
            if (std::abs(err) < std::abs(best_err)) {
              best_err = err;
              found = true;
            }
          }
          if (found) rec.sample("err", best_err);
        });

    const auto rounds = result.counter("rounds");
    if (rounds == 0) {
      std::printf("%-18.0f (no completed rounds)\n", atten);
      continue;
    }
    const auto& errs = result.samples("err");
    RVec abs_errs;
    for (double e : errs) abs_errs.push_back(std::abs(e));
    const double detected_pct = 100.0 * static_cast<double>(errs.size()) /
                                static_cast<double>(rounds);
    const double mean_err = errs.empty() ? 0.0 : dsp::mean(errs);
    std::printf("%-18.0f %5.1f %%     %-14.3f %-14.3f %5.1f %%      %.1f\n",
                atten, detected_pct, mean_err,
                abs_errs.empty() ? 0.0 : dsp::percentile(abs_errs, 95.0),
                100.0 * static_cast<double>(rounds) / opts.trials,
                fp_ratios.empty() ? 0.0 : dsp::mean(fp_ratios));
    const std::string key = std::to_string(static_cast<int>(atten));
    report.metric("detected_pct_db" + key, detected_pct);
    report.metric("mean_err_m_db" + key, mean_err);
  }

  std::printf(
      "\ncheck: moderate attenuation keeps the responder detectable with a\n"
      "growing positive bias (reflection lock-in); deep NLOS eventually\n"
      "drops the response below the detector's reach — the effect the paper\n"
      "defers to future work.\n");
  return report.write_if_requested(opts) ? 0 : 1;
}
