// Robustness extension: resilient ranging under injected faults.
//
// Sweeps the fault-injection loss level against the responder count and
// measures what degrades: round decode/degradation/failure rates, retry
// consumption, per-status responder outcomes, and — the key claim — that
// the survivors of a degraded round keep fault-free ranging accuracy (the
// faults in the model knock out responses, they do not bias the ones that
// get through).
//
// Extra flags on top of the standard bench set:
//   --loss P        run a single loss level instead of the sweep
//   --responders N  run a single responder count instead of the sweep
//   --inert         leave the fault plan disabled entirely (byte-identity
//                   reference for the CI determinism gate: must produce the
//                   same JSON as --loss 0)
//
// JSON keys are cell-prefixed (l30_n4_* = loss 0.30, 4 responders) plus the
// run-wide totals fault_injected_total / session_retry_attempts /
// session_degraded_rounds. All are plain (unprefixed) deterministic metrics:
// identical at any --threads value.
#include <cmath>
#include <cstdio>
#include <numbers>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dsp/stats.hpp"

namespace {

using namespace uwb;

/// Loss level -> fault plan. Reply jitter stays 0 here: jitter shifts the
/// surviving estimates (c * J / 2 per second of jitter) and this bench
/// isolates the claim that pure loss faults do not. test_fault covers
/// jitter.
fault::FaultPlan plan_for_loss(double loss) {
  fault::FaultPlan plan;
  plan.preamble_miss_prob = loss;
  plan.preamble_snr_exponent = 1.0;
  plan.crc_error_prob = loss / 4.0;
  plan.late_tx_abort_prob = loss / 4.0;
  plan.dropout_prob = loss / 8.0;
  return plan;
}

ranging::ScenarioConfig sweep_config(std::uint64_t seed, int responders,
                                     double loss, bool inert) {
  ranging::ScenarioConfig cfg = bench::office_scenario(seed);
  cfg.ranging.num_slots = 4;
  cfg.ranging.slot_spacing_s = 150e-9;
  cfg.ranging.shape_registers = {0x93, 0xC8};
  cfg.detect_max_responses = 2 * responders;
  cfg.slot_aware_selection = true;
  const double radius = 2.8;
  for (int i = 0; i < responders; ++i) {
    const double ang = 2.0 * std::numbers::pi * i / responders + 0.4;
    cfg.responders.push_back(
        {i, {cfg.initiator_position.x + radius * std::cos(ang) + 1.5,
             cfg.initiator_position.y + 0.6 * radius * std::sin(ang)}});
  }
  if (!inert) cfg.fault = plan_for_loss(loss);
  cfg.resilience.max_retries = 2;
  return cfg;
}

std::string cell_key(double loss, int responders) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "l%02d_n%d",
                static_cast<int>(std::lround(loss * 100.0)), responders);
  return buf;
}

constexpr const char* kExtraUsage =
    "\n       [--loss 0..1] [--responders 1..256] [--inert]";

}  // namespace

int main(int argc, char** argv) {
  using namespace uwb;
  bench::BenchOptions opts;
  opts.trials = 400;
  std::vector<double> losses = {0.0, 0.1, 0.2, 0.3, 0.5};
  std::vector<int> responder_counts = {2, 4, 6};
  bool inert = false;
  examples::FlagParser p(argc, argv,
                         std::string("bench_ext_fault_sweep ") +
                             bench::kStandardUsage + kExtraUsage);
  while (p.next()) {
    if (bench::parse_standard_flag(p, opts)) continue;
    if (p.is("--loss")) {
      losses = {p.double_value(0.0, 1.0)};
    } else if (p.is("--responders")) {
      responder_counts = {static_cast<int>(p.int_value(1, 256))};
    } else if (p.is("--inert")) {
      inert = true;
    } else {
      p.unknown();
    }
  }

  bench::JsonReport report("ext_fault_sweep", opts.trials);
  bench::heading("Extension — resilient ranging under injected faults");
  std::printf("(%d trials per cell, max_retries = 2%s)\n", opts.trials,
              inert ? ", fault plan inert" : "");
  std::printf("\n%-10s %-6s %-10s %-10s %-10s %-9s %-12s %s\n", "loss",
              "resp", "decoded", "degraded", "failed", "retries",
              "|err| p50", "faults");

  double fault_injected_total = 0.0;
  double session_retry_attempts = 0.0;
  double session_degraded_rounds = 0.0;

  for (const int responders : responder_counts) {
    // Fault-free reference median per responder count (for the survivors'
    // accuracy delta printed per row).
    double baseline_p50 = 0.0;
    for (const double loss : losses) {
      const std::string cell = cell_key(loss, responders);
      const std::uint64_t cell_seed =
          7100 + static_cast<std::uint64_t>(std::lround(loss * 100.0)) * 101 +
          static_cast<std::uint64_t>(responders);

      const auto result = bench::run_rounds(
          opts, cell_seed, opts.trials,
          [&](std::uint64_t seed) {
            return sweep_config(seed, responders, loss, inert);
          },
          [&](const ranging::ConcurrentRangingScenario& scenario,
              const ranging::RoundOutcome& out, runner::TrialRecorder& rec) {
            const auto& stats = scenario.stats();
            rec.count(cell + "_rounds");
            rec.count(cell + "_retries",
                      static_cast<std::int64_t>(stats.retry_attempts));
            if (out.degraded) rec.count(cell + "_degraded");
            if (!out.payload_decoded) rec.count(cell + "_failed");
            for (const auto& rep : out.responder_reports)
              rec.count(cell + "_status_" +
                        ranging::to_string(rep.status));
            if (const auto* inj = scenario.fault_injector())
              rec.count(cell + "_fault_injected",
                        static_cast<std::int64_t>(inj->counters().total()));
            if (!out.payload_decoded) return;
            // Survivors' ranging error: every estimate that decodes to a
            // real responder, against geometry truth.
            for (const auto& est : out.estimates) {
              if (est.responder_id < 0 || est.responder_id >= responders)
                continue;
              const double err =
                  est.distance_m - scenario.true_distance(est.responder_id).value();
              if (std::abs(err) < 2.0) rec.sample(cell + "_err_m", err);
            }
          });

      const double rounds =
          static_cast<double>(result.counter(cell + "_rounds"));
      const double degraded =
          static_cast<double>(result.counter(cell + "_degraded"));
      const double failed =
          static_cast<double>(result.counter(cell + "_failed"));
      const double retries =
          static_cast<double>(result.counter(cell + "_retries"));
      const double injected =
          static_cast<double>(result.counter(cell + "_fault_injected"));

      RVec abs_errs;
      for (const double e : result.samples(cell + "_err_m"))
        abs_errs.push_back(std::abs(e));
      const double p50 =
          abs_errs.empty() ? 0.0 : dsp::percentile(abs_errs, 50.0);
      if (loss == losses.front()) baseline_p50 = p50;

      std::printf("%-10.2f %-6d %7.1f %%  %7.1f %%  %7.1f %%  %-9.0f "
                  "%-12.4f %.0f\n",
                  loss, responders, 100.0 * (rounds - failed) / rounds,
                  100.0 * degraded / rounds, 100.0 * failed / rounds, retries,
                  p50, injected);
      if (loss != losses.front() && !abs_errs.empty())
        std::printf("%-10s %-6s survivors' p50 delta vs fault-free: "
                    "%+.4f m\n", "", "", p50 - baseline_p50);

      report.summarize(result, cell + "_err_m");
      report.metric(cell + "_rounds", rounds);
      report.metric(cell + "_degraded_rounds", degraded);
      report.metric(cell + "_failed_rounds", failed);
      report.metric(cell + "_retry_attempts", retries);
      report.metric(cell + "_fault_injected", injected);
      for (const char* status :
           {"ok", "no_preamble", "crc_error", "late_tx_abort", "timed_out"})
        report.metric(
            cell + "_status_" + status,
            static_cast<double>(
                result.counter(cell + "_status_" + status)));

      fault_injected_total += injected;
      session_retry_attempts += retries;
      session_degraded_rounds += degraded;
    }
  }

  report.metric("fault_injected_total", fault_injected_total);
  report.metric("session_retry_attempts", session_retry_attempts);
  report.metric("session_degraded_rounds", session_degraded_rounds);

  std::printf(
      "\ncheck: degradation and retries grow with the loss level while the\n"
      "survivors' median |error| stays at the fault-free level — loss-type\n"
      "faults remove responses without biasing the ones that survive.\n");
  return report.write_if_requested(opts) ? 0 : 1;
}
