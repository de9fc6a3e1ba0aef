// Adversarial ranging suite tests: golden-seed determinism of attack
// sequences and verdicts across thread counts, inert-plan byte-identity
// (including CIR taps), per-attack efficacy (the measured distance really
// shrinks), the AttackDetector's checks catching each attack kind, the
// benign-fault zero-false-positive contract, and the DS-TWR asymmetry
// residual.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "fault/attack.hpp"
#include "ranging/dstwr.hpp"
#include "ranging/session.hpp"
#include "runner/monte_carlo.hpp"

namespace uwb::ranging {
namespace {

/// Office scenario with RPM + pulse shaping on (slot/ID decoding is what
/// several attacks target), mirroring bench_ext_adversarial's geometry.
ScenarioConfig office(std::uint64_t seed, int responders = 4) {
  ScenarioConfig cfg;
  cfg.room = geom::Room::rectangular(12.0, 8.0, 10.0);
  cfg.initiator_position = {2.0, 4.0};
  cfg.seed = seed;
  cfg.ranging.num_slots = 4;
  cfg.ranging.slot_spacing_s = 150e-9;
  cfg.ranging.shape_registers = {0x93, 0xC8};
  cfg.detect_max_responses = 2 * responders;
  cfg.slot_aware_selection = true;
  const geom::Vec2 spots[] = {{5.0, 4.0}, {8.0, 5.5}, {9.5, 2.5},
                              {6.0, 6.5}, {4.0, 2.0}, {10.5, 5.0}};
  for (int i = 0; i < responders; ++i) cfg.responders.push_back({i, spots[i]});
  return cfg;
}

fault::AttackPlan clock_skew_plan(int attacker, double spoof_ppm,
                                  double bias_s, double ramp_ppm = 0.0) {
  fault::AttackPlan plan;
  fault::AttackSpec spec;
  spec.attacker_id = attacker;
  spec.kind = fault::AttackKind::kClockSkew;
  spec.cfo_spoof_ppm = spoof_ppm;
  spec.cfo_ramp_ppm_per_round = ramp_ppm;
  spec.reply_bias_s = bias_s;
  plan.specs.push_back(spec);
  return plan;
}

fault::AttackPlan ghost_plan(int attacker, double advance_s, double rel_amp,
                             double probability = 1.0) {
  fault::AttackPlan plan;
  fault::AttackSpec spec;
  spec.attacker_id = attacker;
  spec.kind = fault::AttackKind::kGhostPeak;
  spec.probability = probability;
  spec.ghost_advance_s = advance_s;
  spec.ghost_rel_amplitude = rel_amp;
  plan.specs.push_back(spec);
  return plan;
}

fault::AttackPlan replay_plan(int attacker, int forged_register,
                              double probability = 1.0) {
  fault::AttackPlan plan;
  fault::AttackSpec spec;
  spec.attacker_id = attacker;
  spec.kind = fault::AttackKind::kShapeReplay;
  spec.probability = probability;
  spec.forged_shape_register = forged_register;
  plan.specs.push_back(spec);
  return plan;
}

fault::FaultPlan lossy_plan(double loss) {
  fault::FaultPlan plan;
  plan.preamble_miss_prob = loss;
  plan.crc_error_prob = loss / 4.0;
  plan.late_tx_abort_prob = loss / 4.0;
  plan.dropout_prob = loss / 8.0;
  return plan;
}

/// Round fingerprint including the adversarial surface: verdicts and
/// suspect statuses divergence-test alongside the ranging results.
std::string fingerprint(const RoundOutcome& out) {
  char buf[64];
  std::string fp;
  const auto add = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g;", v);
    fp += buf;
  };
  add(out.completed);
  add(out.payload_decoded);
  add(out.sync_responder_id);
  add(out.d_twr_m);
  add(out.attempts);
  for (const auto& est : out.estimates) {
    add(est.responder_id);
    add(est.distance_m);
  }
  for (const auto& rep : out.responder_reports) {
    add(rep.id);
    add(static_cast<int>(rep.status));
  }
  for (const auto& v : out.verdicts) {
    add(v.responder_id);
    add(static_cast<int>(v.check));
    add(v.metric);
    add(v.tau_s);
  }
  return fp;
}

bool has_check(const RoundOutcome& out, AttackCheck check) {
  for (const auto& v : out.verdicts)
    if (v.check == check) return true;
  return false;
}

RangingStatus status_of(const RoundOutcome& out, int id) {
  for (const auto& rep : out.responder_reports)
    if (rep.id == id) return rep.status;
  return RangingStatus::kTimedOut;
}

TEST(AttackConfigTest, PlanValidation) {
  fault::AttackPlan plan = ghost_plan(2, 40e-9, 1.5);
  EXPECT_NO_THROW(plan.validate());
  EXPECT_TRUE(plan.active());

  fault::AttackPlan bad = plan;
  bad.specs[0].probability = 1.5;
  EXPECT_THROW(bad.validate(), PreconditionError);

  fault::AttackPlan dup = plan;
  dup.specs.push_back(plan.specs[0]);  // duplicate attacker id
  EXPECT_THROW(dup.validate(), PreconditionError);

  fault::AttackPlan inert;  // no specs
  EXPECT_NO_THROW(inert.validate());
  EXPECT_FALSE(inert.active());
}

TEST(AttackConfigTest, OneActiveSpecBuildsTheInjector) {
  // active() alone decides: one active spec and nothing else set is an
  // adversary that manipulates frames.
  ScenarioConfig cfg = office(5);
  fault::AttackSpec spec;
  spec.attacker_id = 1;
  spec.cfo_spoof_ppm = -3.0;
  cfg.attack.specs.push_back(spec);
  ConcurrentRangingScenario scenario(cfg);
  ASSERT_NE(scenario.attack_injector(), nullptr);
  for (int round = 0; round < 5; ++round) scenario.run_round();
  EXPECT_GT(scenario.attack_injector()->counters().cfo_spoofed_frames, 0u);
}

TEST(AttackConfigTest, ValidateConfigRejectsUnknownAttacker) {
  ScenarioConfig cfg = office(1);
  cfg.attack = ghost_plan(9, 40e-9, 1.5);  // id 9 is not deployed
  const Status s = ConcurrentRangingScenario::validate_config(cfg);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("attacker"), std::string::npos);

  cfg.attack = ghost_plan(2, 40e-9, 1.5);
  EXPECT_TRUE(ConcurrentRangingScenario::validate_config(cfg).ok());

  cfg.attack_detector.enabled = true;
  cfg.attack_detector.cfo_max_ppm = -1.0;
  EXPECT_FALSE(ConcurrentRangingScenario::validate_config(cfg).ok());
}

TEST(AttackDeterminismTest, GoldenSeedIdenticalAcrossThreadCounts) {
  // The same attacked Monte-Carlo run at 1 and 4 worker threads must
  // produce identical per-trial fingerprints (verdicts included) and
  // identical injected-attack counters.
  const auto run_mc = [](int threads) {
    runner::MonteCarlo::Config mc_cfg;
    mc_cfg.threads = threads;
    mc_cfg.base_seed = 2024;
    return runner::MonteCarlo(mc_cfg).run(
        24, [](const runner::TrialContext& ctx, runner::TrialRecorder& rec) {
          ScenarioConfig cfg = office(ctx.seed);
          cfg.fault = lossy_plan(0.3);
          cfg.attack = clock_skew_plan(0, -12.0, 0.0);
          fault::AttackSpec ghost;
          ghost.attacker_id = 2;
          ghost.kind = fault::AttackKind::kGhostPeak;
          ghost.probability = 0.7;
          ghost.ghost_advance_s = 45e-9;
          ghost.ghost_rel_amplitude = 1.8;
          cfg.attack.specs.push_back(ghost);
          cfg.attack_detector.enabled = true;
          cfg.resilience.max_retries = 2;
          ConcurrentRangingScenario scenario(cfg);
          for (int round = 0; round < 3; ++round) {
            const RoundOutcome out = scenario.run_round();
            rec.sample("fp_hash",
                       static_cast<double>(
                           std::hash<std::string>{}(fingerprint(out))));
          }
          rec.count("attacks",
                    static_cast<std::int64_t>(
                        scenario.attack_injector()->counters().total()));
          rec.count("suspects", static_cast<std::int64_t>(
                                    scenario.stats().suspect_reports));
        });
  };
  const auto r1 = run_mc(1);
  const auto r4 = run_mc(4);
  ASSERT_EQ(r1.samples("fp_hash").size(), r4.samples("fp_hash").size());
  EXPECT_EQ(r1.samples("fp_hash"), r4.samples("fp_hash"));
  EXPECT_EQ(r1.counter("attacks"), r4.counter("attacks"));
  EXPECT_GT(r1.counter("attacks"), 0);
  EXPECT_EQ(r1.counter("suspects"), r4.counter("suspects"));
  EXPECT_GT(r1.counter("suspects"), 0);
}

TEST(AttackDeterminismTest, InertPlanByteIdenticalToDefault) {
  // A plan whose specs are all inert constructs no injector and must
  // reproduce the default configuration bit for bit — including every CIR
  // tap, since the ghost hook appends to the delivered tap lists.
  ScenarioConfig plain = office(1234);
  ScenarioConfig zeroed = office(1234);
  fault::AttackSpec inert;  // all strengths zero
  inert.attacker_id = 1;
  inert.kind = fault::AttackKind::kClockSkew;
  zeroed.attack.specs.push_back(inert);
  fault::AttackSpec silent_ghost;
  silent_ghost.attacker_id = 2;
  silent_ghost.kind = fault::AttackKind::kGhostPeak;
  silent_ghost.probability = 0.0;  // never fires
  zeroed.attack.specs.push_back(silent_ghost);
  ConcurrentRangingScenario a(plain);
  ConcurrentRangingScenario b(zeroed);
  EXPECT_EQ(b.attack_injector(), nullptr);
  for (int round = 0; round < 5; ++round) {
    const RoundOutcome oa = a.run_round();
    const RoundOutcome ob = b.run_round();
    EXPECT_EQ(fingerprint(oa), fingerprint(ob)) << "round " << round;
    ASSERT_EQ(oa.cir.taps.size(), ob.cir.taps.size());
    for (std::size_t i = 0; i < oa.cir.taps.size(); ++i)
      EXPECT_EQ(oa.cir.taps[i], ob.cir.taps[i]);
  }
}

TEST(AttackEfficacyTest, NegativeCfoSpoofShrinksMeasuredDistance) {
  // A -6 ppm overshoot is below the 8 ppm plausibility bound (undetected)
  // and shifts Eq. 2 by ~ -c * 6e-6 * t_reply / 2 ~= -26 cm at 290 us.
  const auto mean_error = [](fault::AttackPlan plan) {
    ScenarioConfig cfg = office(99);
    cfg.attack = std::move(plan);
    ConcurrentRangingScenario scenario(cfg);
    double sum = 0.0;
    int n = 0;
    for (int round = 0; round < 20; ++round) {
      const RoundOutcome out = scenario.run_round();
      if (!out.payload_decoded || out.sync_responder_id != 0) continue;
      sum += out.d_twr_m - scenario.true_distance(0).value();
      ++n;
    }
    EXPECT_GT(n, 10);
    return sum / n;
  };
  const double honest = mean_error({});
  const double attacked = mean_error(clock_skew_plan(0, -6.0, 0.0));
  EXPECT_NEAR(attacked - honest, -0.26, 0.13);
}

TEST(AttackDetectTest, CfoOvershootCaught) {
  ScenarioConfig cfg = office(7);
  cfg.attack = clock_skew_plan(0, -20.0, 0.0);
  cfg.attack_detector.enabled = true;
  ConcurrentRangingScenario scenario(cfg);
  int decoded = 0, caught = 0;
  for (int round = 0; round < 10; ++round) {
    const RoundOutcome out = scenario.run_round();
    if (!out.payload_decoded || out.sync_responder_id != 0) continue;
    ++decoded;
    // -20 ppm shrinks the sync distance by ~87 cm; the detector flags the
    // implausible CFO and demotes the responder to kSuspect.
    EXPECT_LT(out.d_twr_m, scenario.true_distance(0).value() - 0.4);
    if (has_check(out, AttackCheck::kCfoImplausible) &&
        status_of(out, 0) == RangingStatus::kSuspect)
      ++caught;
  }
  EXPECT_GT(decoded, 5);
  EXPECT_EQ(caught, decoded);
  EXPECT_EQ(scenario.stats().suspect_rounds, static_cast<std::uint64_t>(decoded));
}

TEST(AttackDetectTest, CfoRampCrossesThresholdMidRun) {
  // A gradual overshoot ramp (1.5 ppm/round from 0) stays undetected for
  // the first rounds and must be caught once it crosses the 8 ppm bound.
  ScenarioConfig cfg = office(11);
  cfg.attack = clock_skew_plan(0, 0.0, 0.0, /*ramp_ppm=*/1.5);
  cfg.attack_detector.enabled = true;
  ConcurrentRangingScenario scenario(cfg);
  std::vector<bool> suspect_by_round;
  for (int round = 0; round < 12; ++round) {
    const RoundOutcome out = scenario.run_round();
    if (!out.payload_decoded || out.sync_responder_id != 0) continue;
    suspect_by_round.push_back(status_of(out, 0) == RangingStatus::kSuspect);
  }
  ASSERT_GT(suspect_by_round.size(), 8u);
  EXPECT_FALSE(suspect_by_round.front());  // ramp still under the bound
  EXPECT_TRUE(suspect_by_round.back());    // ramp has crossed it
}

TEST(AttackDetectTest, ForgedReplyTimestampCaught) {
  // +80 ns reported-TX bias inflates the reply interval: distance shrinks
  // by c * 40 ns ~= 12 m, and the reply-schedule residual (honest range:
  // delayed-TX quantisation, < 8.013 ns) lands at ~+80 ns — far past the
  // tolerance.
  ScenarioConfig cfg = office(13);
  cfg.attack = clock_skew_plan(0, 0.0, 80e-9);
  cfg.attack_detector.enabled = true;
  ConcurrentRangingScenario scenario(cfg);
  int decoded = 0, caught = 0;
  for (int round = 0; round < 10; ++round) {
    const RoundOutcome out = scenario.run_round();
    if (!out.payload_decoded || out.sync_responder_id != 0) continue;
    ++decoded;
    EXPECT_LT(out.d_twr_m, scenario.true_distance(0).value() - 10.0);
    if (has_check(out, AttackCheck::kReplySchedule) &&
        status_of(out, 0) == RangingStatus::kSuspect)
      ++caught;
  }
  EXPECT_GT(decoded, 5);
  EXPECT_EQ(caught, decoded);
}

TEST(AttackDetectTest, SmallReplyBiasEvadesButBarelyMoves) {
  // A +5 ns bias hides inside the quantisation tolerance (no verdict) but
  // only buys the attacker ~75 cm — the detector bounds the damage.
  ScenarioConfig cfg = office(17);
  cfg.attack = clock_skew_plan(0, 0.0, 5e-9);
  cfg.attack_detector.enabled = true;
  ConcurrentRangingScenario scenario(cfg);
  for (int round = 0; round < 8; ++round) {
    const RoundOutcome out = scenario.run_round();
    if (!out.payload_decoded || out.sync_responder_id != 0) continue;
    EXPECT_TRUE(out.verdicts.empty());
    EXPECT_NEAR(out.d_twr_m, scenario.true_distance(0).value() - 0.75, 0.5);
  }
}

TEST(AttackEfficacyTest, GhostPeakShrinksVictimDistance) {
  // Ghost taps requested 45 ns ahead of responder 2's first path clamp to
  // the attacker's ~25.5 ns one-way delay (a tap cannot precede the frame's
  // transmission), still pulling its slot residual early enough to drop the
  // interpreted distance by ~3.9 m whenever the ghost outranks the
  // legitimate path.
  ScenarioConfig cfg = office(23);
  cfg.attack = ghost_plan(2, 45e-9, 2.0);
  ConcurrentRangingScenario scenario(cfg);
  int shrunk = 0, seen = 0;
  for (int round = 0; round < 12; ++round) {
    const RoundOutcome out = scenario.run_round();
    if (!out.payload_decoded) continue;
    for (const auto& est : out.estimates) {
      if (est.responder_id != 2) continue;
      ++seen;
      if (est.distance_m < scenario.true_distance(2).value() - 3.0) ++shrunk;
    }
  }
  EXPECT_GT(seen, 6);
  EXPECT_GT(shrunk, seen / 2);
}

TEST(AttackDetectTest, GhostPeakCaughtByTailCheck) {
  // A strong isolated ghost ~25 ns early (45 ns requested, clamped at the
  // attacker's one-way delay) has no multipath tail in the 3..20 ns window
  // behind it; the tail-energy check must indict in most decoded rounds.
  ScenarioConfig cfg = office(29);
  cfg.attack = ghost_plan(2, 45e-9, 2.0);
  cfg.attack_detector.enabled = true;
  ConcurrentRangingScenario scenario(cfg);
  int decoded = 0, caught = 0;
  for (int round = 0; round < 12; ++round) {
    const RoundOutcome out = scenario.run_round();
    if (!out.payload_decoded) continue;
    ++decoded;
    if (has_check(out, AttackCheck::kGhostTail)) ++caught;
  }
  EXPECT_GT(decoded, 8);
  EXPECT_GT(caught, (3 * decoded) / 4);
}

TEST(AttackDetectTest, InBankShapeReplayDecodesToUnknownId) {
  // Responder 3 (slot 3, shape 0) replaying bank register 0xC8 decodes as
  // shape 1 -> ID 1*4+3 = 7, which is not deployed: the unknown-ID check
  // fires (responder 3 is close enough that its forged response clears the
  // unknown-ID amplitude floor).
  ScenarioConfig cfg = office(31);
  cfg.attack = replay_plan(3, 0xC8);
  cfg.attack_detector.enabled = true;
  ConcurrentRangingScenario scenario(cfg);
  int decoded = 0, caught = 0;
  for (int round = 0; round < 12; ++round) {
    const RoundOutcome out = scenario.run_round();
    if (!out.payload_decoded) continue;
    ++decoded;
    if (has_check(out, AttackCheck::kUnknownId)) ++caught;
  }
  EXPECT_GT(decoded, 8);
  EXPECT_GT(caught, decoded / 2);
}

TEST(BenignFalsePositiveTest, LossyFaultSweepProducesZeroSuspects) {
  // The CI gate's contract: the benign 30 % loss fault plan with the
  // detector on must never indict anyone, across seeds and rounds.
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    ScenarioConfig cfg = office(seed);
    cfg.fault = lossy_plan(0.3);
    cfg.attack_detector.enabled = true;
    cfg.resilience.max_retries = 2;
    ConcurrentRangingScenario scenario(cfg);
    for (int round = 0; round < 25; ++round) {
      const RoundOutcome out = scenario.run_round();
      EXPECT_TRUE(out.verdicts.empty())
          << "seed " << seed << " round " << round << " check "
          << to_string(out.verdicts.front().check) << " metric "
          << out.verdicts.front().metric;
    }
    EXPECT_EQ(scenario.stats().suspect_reports, 0u);
  }
}

TEST(DsTwrResidualTest, ScheduleConsistentForgeryShiftsAsymmetryResidual) {
  // Honest clocks: the two half-exchange estimates agree to drift-scaled
  // reply intervals (sub-ns). Forging t_tx_resp alone cancels in the
  // residual (it enters Db and Rb with opposite signs) — that forgery is
  // the reply-schedule check's job. The residual catches the
  // schedule-consistent variant: shifting BOTH reported t_rx_poll and
  // t_tx_resp by +b keeps the apparent reply at the programmed value but
  // moves the residual by exactly +b/2 while shrinking the distance ~c*b/4.
  const double tof = 9.0 / k::c_air;
  const auto honest = [&](double ppm_a, double ppm_b) {
    const double ka = 1.0 + ppm_a * 1e-6;
    const double kb = 1.0 + ppm_b * 1e-6;
    DsTwrTimestamps ts;
    ts.t_tx_poll = dw::DwTimestamp(1'000'000);
    ts.t_rx_resp = ts.t_tx_poll.plus_seconds(Seconds((2.0 * tof + 290e-6) * ka));
    ts.t_tx_final = ts.t_rx_resp.plus_seconds(Seconds(290e-6 * ka));
    ts.t_rx_poll = dw::DwTimestamp(777'777'777);
    ts.t_tx_resp = ts.t_rx_poll.plus_seconds(Seconds(290e-6 * kb));
    ts.t_rx_final = ts.t_tx_resp.plus_seconds(Seconds((2.0 * tof + 290e-6) * kb));
    return ts;
  };
  const auto ts = honest(+5.0, -5.0);
  EXPECT_LT(std::abs(ds_twr_asymmetry_residual_s(ts).value()), 5e-9);

  // Naive forgery (t_tx_resp only): invisible to the residual...
  DsTwrTimestamps naive = ts;
  const double bias = 40e-9;
  naive.t_tx_resp = ts.t_tx_resp.plus_seconds(Seconds(bias));
  EXPECT_NEAR(ds_twr_asymmetry_residual_s(naive).value(),
              ds_twr_asymmetry_residual_s(ts).value(), 1e-12);
  // ...but it inflates the apparent reply Db by the full bias, which is
  // what the reply-schedule check compares against the programmed value.
  const double db_naive =
      naive.t_tx_resp.diff_seconds(naive.t_rx_poll).value();
  const double db_honest = ts.t_tx_resp.diff_seconds(ts.t_rx_poll).value();
  EXPECT_NEAR(db_naive - db_honest, bias, 2e-11);

  // Schedule-consistent forgery: both responder-reported timestamps shift,
  // Db stays at the programmed reply, the residual moves by +b/2. Both
  // timestamps shift by the same tick-quantised amount, so the residual
  // shift is exact up to one ~15.65 ps DW1000 tick.
  DsTwrTimestamps forged = ts;
  forged.t_rx_poll = ts.t_rx_poll.plus_seconds(Seconds(bias));
  forged.t_tx_resp = ts.t_tx_resp.plus_seconds(Seconds(bias));
  const double db_forged =
      forged.t_tx_resp.diff_seconds(forged.t_rx_poll).value();
  EXPECT_NEAR(db_forged, db_honest, 2e-11);
  EXPECT_NEAR(ds_twr_asymmetry_residual_s(forged).value() -
                  ds_twr_asymmetry_residual_s(ts).value(),
              bias / 2.0, 2e-11);
  // And the forged exchange's distance really shrinks (~c*b/4 = 3 m).
  EXPECT_LT(ds_twr_distance(forged).value(), ds_twr_distance(ts).value() - 2.0);
}

}  // namespace
}  // namespace uwb::ranging
