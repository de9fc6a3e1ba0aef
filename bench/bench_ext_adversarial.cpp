// Robustness extension: adversarial ranging and the attack detector.
//
// Sweeps the three attack kinds of src/fault/attack.hpp across strengths
// against the 4-responder office deployment, with the AttackDetector on,
// and measures both sides of the arms race:
//   - attack success: how far the targeted measurement shrinks (raw and
//     conditioned on rounds the detector missed — the damage that matters),
//   - detection rate per cell, and the aggregate over the strong cells
//     (gated in CI: strong attacks must be caught >= 90 % of the time),
//   - benign false positives: the fault-sweep 30 % loss plan with the
//     detector on must produce zero verdicts (gated at exactly 0).
//
// Extra flags on top of the standard bench set:
//   --attack K    run a single attack family (cfo | bias | ghost | replay |
//                 benign) instead of the full sweep
//   --strength S  with --attack: run a single strength (ppm for cfo, ns for
//                 bias/ghost; ignored for replay/benign)
//   --loss P      layer the fault-sweep loss plan at level P on every
//                 selected cell (attack + benign loss composed) — used by
//                 the CI determinism step, which flight-records an attacked
//                 lossy session at two thread counts and cmp's the exports
//
// JSON keys are cell-prefixed (cfo_s12_* = -12 ppm overshoot, ghost_s40_* =
// 40 ns early ghost, ...) plus the gated aggregates detection_rate and
// benign_false_positive_rate.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/attack.hpp"

namespace {

using namespace uwb;

enum class Target {
  kSyncDistance,  ///< d_twr to the sync responder (clock-skew attacks)
  kEstimate,      ///< the attacker's interpreted estimate (ghost attacks)
  kNone,          ///< identification attacks: detection is the whole story
};

struct Cell {
  std::string key;
  std::string family;
  double strength = 0.0;  // ppm (cfo) or ns (bias/ghost); 0 for replay/benign
  fault::AttackPlan plan;
  fault::FaultPlan fault;
  int attacker = -1;
  Target target = Target::kNone;
  /// Counts toward the gated aggregate detection_rate.
  bool strong = false;
};

fault::AttackPlan one_spec(fault::AttackSpec spec) {
  fault::AttackPlan plan;
  plan.specs.push_back(spec);
  return plan;
}

// bench_ext_fault_sweep's loss mix at level `loss` (0.3 = the 30 % plan).
void apply_loss(fault::FaultPlan& fault, double loss) {
  fault.preamble_miss_prob = loss;
  fault.preamble_snr_exponent = 1.0;
  fault.crc_error_prob = loss / 4.0;
  fault.late_tx_abort_prob = loss / 4.0;
  fault.dropout_prob = loss / 8.0;
}

std::vector<Cell> make_cells() {
  std::vector<Cell> cells;
  char key[32];

  // Clock-skew carrier overshoot on the sync responder (id 0). Negative
  // spoof shrinks Eq. 2 by ~4.35 cm/ppm at the 290 us reply time. The
  // plausibility bound is 8 ppm: strengths past it must be caught.
  for (const double ppm : {2.0, 4.0, 8.0, 12.0, 20.0}) {
    std::snprintf(key, sizeof(key), "cfo_s%02d", static_cast<int>(ppm));
    fault::AttackSpec spec;
    spec.attacker_id = 0;
    spec.kind = fault::AttackKind::kClockSkew;
    spec.cfo_spoof_ppm = -ppm;
    cells.push_back({key, "cfo", ppm, one_spec(spec), {}, 0,
                     Target::kSyncDistance, ppm >= 12.0});
  }

  // Forged reply timestamp on the sync responder: c * bias / 2 ~= 15 cm/ns.
  // Honest replies are off only by the < 8.013 ns delayed-TX quantisation,
  // so biases past the 15 ns tolerance must be caught.
  for (const double ns : {5.0, 10.0, 20.0, 40.0, 80.0}) {
    std::snprintf(key, sizeof(key), "bias_s%02d", static_cast<int>(ns));
    fault::AttackSpec spec;
    spec.attacker_id = 0;
    spec.kind = fault::AttackKind::kClockSkew;
    spec.reply_bias_s = ns * 1e-9;
    cells.push_back({key, "bias", ns, one_spec(spec), {}, 0,
                     Target::kSyncDistance, ns >= 40.0});
  }

  // Ghost CIR taps ahead of responder 2's first path: c * advance / 2
  // distance cut, physically capped at the attacker's ~25 ns one-way delay
  // (a tap cannot precede the frame's transmission). Small advances hide
  // inside the legitimate response's own spread; past the 20 ns tail
  // window the ghost stands alone and the tail-energy check sees it.
  for (const double ns : {10.0, 20.0, 40.0, 60.0}) {
    std::snprintf(key, sizeof(key), "ghost_s%02d", static_cast<int>(ns));
    fault::AttackSpec spec;
    spec.attacker_id = 2;
    spec.kind = fault::AttackKind::kGhostPeak;
    spec.ghost_advance_s = ns * 1e-9;
    spec.ghost_rel_amplitude = 2.0;
    cells.push_back({key, "ghost", ns, one_spec(spec), {}, 2,
                     Target::kEstimate, ns >= 40.0});
  }

  // Pulse-shape replay by responder 3 (slot 3, shape 0, close enough that
  // its response clears the unknown-ID amplitude floor): both the in-bank
  // forge (0xC8) and the out-of-bank forge (0xE0, which still correlates
  // best with the 0xC8 template) decode as shape 1 -> undeployed ID 7, so
  // the unknown-ID check fires.
  {
    fault::AttackSpec spec;
    spec.attacker_id = 3;
    spec.kind = fault::AttackKind::kShapeReplay;
    spec.forged_shape_register = 0xC8;
    cells.push_back({"replay_inband", "replay", 0.0, one_spec(spec), {}, 3,
                     Target::kNone, true});
    spec.forged_shape_register = 0xE0;
    cells.push_back({"replay_outband", "replay", 0.0, one_spec(spec), {}, 3,
                     Target::kNone, true});
  }

  // Benign reference: bench_ext_fault_sweep's 30 % loss plan, no adversary.
  // Any verdict here is a false positive; the gate requires exactly zero.
  {
    Cell benign;
    benign.key = "benign_l30";
    benign.family = "benign";
    apply_loss(benign.fault, 0.3);
    cells.push_back(benign);
  }
  return cells;
}

ranging::ScenarioConfig cell_config(std::uint64_t seed, const Cell& cell) {
  constexpr int kResponders = 4;
  ranging::ScenarioConfig cfg = bench::office_scenario(seed);
  cfg.ranging.num_slots = 4;
  cfg.ranging.slot_spacing_s = 150e-9;
  cfg.ranging.shape_registers = {0x93, 0xC8};
  cfg.detect_max_responses = 2 * kResponders;
  cfg.slot_aware_selection = true;
  // Fixed spots (shared with tests/test_adversarial.cpp) rather than the
  // fault-sweep ring: the ghost attacker (responder 2) must sit far from
  // the initiator — its one-way delay caps how far a ghost can lead the
  // legitimate path, and a close-in attacker's boosted frame would also
  // bury the sync payload below the SIR decode floor.
  const geom::Vec2 spots[kResponders] = {
      {5.0, 4.0}, {8.0, 5.5}, {9.5, 2.5}, {6.0, 6.5}};
  for (int i = 0; i < kResponders; ++i)
    cfg.responders.push_back({i, spots[i]});
  cfg.attack = cell.plan;
  cfg.fault = cell.fault;
  cfg.attack_detector.enabled = true;
  cfg.resilience.max_retries = 2;
  return cfg;
}

constexpr const char* kExtraUsage =
    "\n       [--attack cfo|bias|ghost|replay|benign] [--strength 0..1000]"
    "\n       [--loss 0..1]";

}  // namespace

int main(int argc, char** argv) {
  using namespace uwb;
  bench::BenchOptions opts;
  opts.trials = 120;
  std::string only_family;
  double only_strength = -1.0;
  double extra_loss = 0.0;
  examples::FlagParser p(argc, argv,
                         std::string("bench_ext_adversarial ") +
                             bench::kStandardUsage + kExtraUsage);
  while (p.next()) {
    if (bench::parse_standard_flag(p, opts)) continue;
    if (p.is("--attack")) {
      only_family = p.value();
    } else if (p.is("--strength")) {
      only_strength = p.double_value(0.0, 1000.0);
    } else if (p.is("--loss")) {
      extra_loss = p.double_value(0.0, 1.0);
    } else {
      p.unknown();
    }
  }

  std::vector<Cell> cells;
  for (Cell& cell : make_cells()) {
    if (!only_family.empty() && cell.family != only_family) continue;
    if (only_strength >= 0.0 && cell.strength != only_strength) continue;
    if (extra_loss > 0.0) apply_loss(cell.fault, extra_loss);
    cells.push_back(std::move(cell));
  }
  if (cells.empty())
    p.fail("no cell matches --attack '%s' --strength %g", only_family.c_str(),
           only_strength);

  bench::JsonReport report("ext_adversarial", opts.trials);
  bench::heading("Extension — adversarial ranging vs. the attack detector");
  std::printf("(%d trials per cell, detector on, max_retries = 2)\n",
              opts.trials);
  std::printf("\n%-15s %-8s %-10s %-12s %-14s %s\n", "cell", "decoded",
              "detect %", "suspects", "reduction p50",
              "undetected reduction p50");

  double strong_rounds = 0.0;
  double strong_detected = 0.0;
  double benign_rounds = 0.0;
  double benign_false_positives = 0.0;

  for (const Cell& cell : cells) {
    const std::string& key = cell.key;
    std::uint64_t cell_seed = 9300;
    for (const char c : key) cell_seed = cell_seed * 31 + static_cast<unsigned char>(c);

    const auto result = bench::run_rounds(
        opts, cell_seed, opts.trials,
        [&](std::uint64_t seed) { return cell_config(seed, cell); },
        [&](const ranging::ConcurrentRangingScenario& scenario,
            const ranging::RoundOutcome& out, runner::TrialRecorder& rec) {
          rec.count(key + "_rounds");
          if (!out.payload_decoded) return;
          rec.count(key + "_decoded");
          const bool detected = !out.verdicts.empty();
          if (detected) rec.count(key + "_detected");
          rec.count(key + "_suspect_reports",
                    static_cast<std::int64_t>(
                        scenario.stats().suspect_reports));

          // The targeted measurement's shortfall vs geometry truth: the
          // attacker's take if the round were trusted, and (the number that
          // matters operationally) its take when the detector stayed quiet.
          double reduction = 0.0;
          bool have_reduction = false;
          if (cell.target == Target::kSyncDistance &&
              out.sync_responder_id == cell.attacker) {
            reduction = scenario.true_distance(cell.attacker).value() -
                        out.d_twr_m;
            have_reduction = true;
          } else if (cell.target == Target::kEstimate) {
            for (const auto& est : out.estimates) {
              if (est.responder_id != cell.attacker) continue;
              reduction = scenario.true_distance(cell.attacker).value() -
                          est.distance_m;
              have_reduction = true;
              break;
            }
          }
          if (have_reduction) {
            rec.sample(key + "_reduction_m", reduction);
            if (!detected)
              rec.sample(key + "_undetected_reduction_m", reduction);
          }
        });

    const double decoded =
        static_cast<double>(result.counter(key + "_decoded"));
    const double detected =
        static_cast<double>(result.counter(key + "_detected"));
    const double suspects =
        static_cast<double>(result.counter(key + "_suspect_reports"));
    const double detect_rate = decoded > 0.0 ? detected / decoded : 0.0;
    const auto red = result.summary(key + "_reduction_m");
    const auto undet = result.summary(key + "_undetected_reduction_m");

    std::printf("%-15s %-8.0f %7.1f %%  %-12.0f %-14.3f %.3f\n", key.c_str(),
                decoded, 100.0 * detect_rate, suspects, red.p50, undet.p50);

    report.metric(key + "_decoded_rounds", decoded);
    report.metric(key + "_detected_rounds", detected);
    report.metric(key + "_detection_rate", detect_rate);
    report.metric(key + "_suspect_reports", suspects);
    report.summarize(result, key + "_reduction_m");
    report.summarize(result, key + "_undetected_reduction_m");

    if (cell.strong) {
      strong_rounds += decoded;
      strong_detected += detected;
    }
    if (cell.family == "benign") {
      benign_rounds += decoded;
      benign_false_positives += detected;
    }
  }

  const double detection_rate =
      strong_rounds > 0.0 ? strong_detected / strong_rounds : 0.0;
  const double benign_fp_rate =
      benign_rounds > 0.0 ? benign_false_positives / benign_rounds : 0.0;
  report.metric("detection_rate", detection_rate);
  report.metric("benign_false_positive_rate", benign_fp_rate);

  std::printf(
      "\nstrong-attack detection rate: %.1f %% (gate: >= 90 %%)\n"
      "benign false-positive rate:   %.3f (gate: exactly 0)\n"
      "\ncheck: weak attacks evade detection but buy centimetres; strong\n"
      "attacks buy metres only in the rounds the detector misses — and the\n"
      "undetected-reduction column shows those shrink to nothing past the\n"
      "thresholds.\n",
      100.0 * detection_rate, benign_fp_rate);
  return report.write_if_requested(opts) ? 0 : 1;
}
