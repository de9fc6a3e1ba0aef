// Fault-injection subsystem + resilient session tests: golden-seed
// determinism across thread counts, zero-fault byte-identity with the
// pre-subsystem behaviour, graceful degradation (all responders lost, every
// RangingStatus reachable), the deterministic retry/backoff schedule, and
// the Status-path config validation.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "acceptance.hpp"
#include "fault/fault.hpp"
#include "ranging/session.hpp"
#include "runner/monte_carlo.hpp"

namespace uwb::ranging {
namespace {

ScenarioConfig office(std::uint64_t seed, int responders = 3) {
  ScenarioConfig cfg;
  cfg.room = geom::Room::rectangular(12.0, 8.0, 10.0);
  cfg.initiator_position = {2.0, 4.0};
  cfg.seed = seed;
  const geom::Vec2 spots[] = {{5.0, 4.0}, {8.0, 5.5}, {9.5, 2.5},
                              {6.0, 6.5}, {4.0, 2.0}, {10.5, 5.0}};
  for (int i = 0; i < responders; ++i) cfg.responders.push_back({i, spots[i]});
  return cfg;
}

fault::FaultPlan lossy_plan(double loss) {
  fault::FaultPlan plan;
  plan.preamble_miss_prob = loss;
  plan.crc_error_prob = loss / 4.0;
  plan.late_tx_abort_prob = loss / 4.0;
  plan.dropout_prob = loss / 8.0;
  return plan;
}

/// Fingerprint of one round: every deterministic field that could reveal an
/// RNG-stream or event-order divergence.
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
  add(out.degraded);
  add(out.crc_error);
  for (const auto& est : out.estimates) {
    add(est.responder_id);
    add(est.distance_m);
  }
  for (const auto& rep : out.responder_reports) {
    add(rep.id);
    add(static_cast<int>(rep.status));
  }
  return fp;
}

TEST(FaultDeterminismTest, GoldenSeedIdenticalAcrossThreadCounts) {
  // The same faulty Monte-Carlo run at 1 and 4 worker threads must produce
  // identical per-trial fingerprints and identical merged counters.
  const auto run_mc = [](int threads) {
    runner::MonteCarlo::Config mc_cfg;
    mc_cfg.threads = threads;
    mc_cfg.base_seed = 991;
    return runner::MonteCarlo(mc_cfg).run(
        24, [](const runner::TrialContext& ctx, runner::TrialRecorder& rec) {
          ScenarioConfig cfg = office(ctx.seed, 4);
          cfg.fault = lossy_plan(0.35);
          cfg.resilience.max_retries = 2;
          ConcurrentRangingScenario scenario(cfg);
          for (int round = 0; round < 3; ++round) {
            const RoundOutcome out = scenario.run_round();
            rec.sample("fp_hash",
                       static_cast<double>(
                           std::hash<std::string>{}(fingerprint(out))));
          }
          rec.count("faults", static_cast<std::int64_t>(
                                  scenario.fault_injector()->counters().total()));
          rec.count("retries", static_cast<std::int64_t>(
                                   scenario.stats().retry_attempts));
        });
  };
  const auto r1 = run_mc(1);
  const auto r4 = run_mc(4);
  ASSERT_EQ(r1.samples("fp_hash").size(), r4.samples("fp_hash").size());
  EXPECT_EQ(r1.samples("fp_hash"), r4.samples("fp_hash"));
  EXPECT_EQ(r1.counter("faults"), r4.counter("faults"));
  EXPECT_GT(r1.counter("faults"), 0);
  EXPECT_EQ(r1.counter("retries"), r4.counter("retries"));
}

TEST(FaultDeterminismTest, ZeroFaultPlanByteIdenticalToDefault) {
  // A plan whose probabilities are all zero constructs no injector and must
  // reproduce the default configuration bit for bit, round by round — the
  // byte-identity half of the determinism contract.
  ScenarioConfig plain = office(1234, 3);
  ScenarioConfig zeroed = office(1234, 3);
  zeroed.fault.preamble_snr_exponent = 1.0;  // every probability left at 0.0
  zeroed.fault.drift_step_sigma_ppm = 0.5;
  ConcurrentRangingScenario a(plain);
  ConcurrentRangingScenario b(zeroed);
  EXPECT_EQ(b.fault_injector(), nullptr);
  for (int round = 0; round < 5; ++round) {
    const RoundOutcome oa = a.run_round();
    const RoundOutcome ob = b.run_round();
    EXPECT_EQ(fingerprint(oa), fingerprint(ob)) << "round " << round;
    ASSERT_EQ(oa.cir.taps.size(), ob.cir.taps.size());
    for (std::size_t i = 0; i < oa.cir.taps.size(); ++i)
      EXPECT_EQ(oa.cir.taps[i], ob.cir.taps[i]);
  }
}

TEST(FaultDeterminismTest, SameSeedSameFaultSequence) {
  const auto run_once = [] {
    ScenarioConfig cfg = office(77, 4);
    cfg.fault = lossy_plan(0.4);
    cfg.resilience.max_retries = 1;
    ConcurrentRangingScenario scenario(cfg);
    std::string fp;
    for (int round = 0; round < 4; ++round) fp += fingerprint(scenario.run_round());
    return fp + std::to_string(scenario.fault_injector()->counters().total());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FaultSessionTest, AllRespondersLostRoundIsEmptyButValid) {
  // Mute every responder: the round must come back failed-but-well-formed
  // (no abort, no estimates, every responder reported timed out).
  ScenarioConfig cfg = office(555, 3);
  cfg.fault.dropout_prob = 1.0;
  cfg.fault.dropout_rounds_min = 10;
  cfg.fault.dropout_rounds_max = 10;
  cfg.resilience.max_retries = 1;
  ConcurrentRangingScenario scenario(cfg);
  const RoundOutcome out = scenario.run_round();
  EXPECT_FALSE(out.completed);
  EXPECT_FALSE(out.payload_decoded);
  EXPECT_TRUE(out.estimates.empty());
  EXPECT_EQ(out.attempts, 2);  // both attempts consumed, then gave up
  ASSERT_EQ(out.responder_reports.size(), 3u);
  for (const auto& rep : out.responder_reports)
    EXPECT_EQ(rep.status, RangingStatus::kTimedOut);
  EXPECT_EQ(scenario.stats().failed_rounds, 1u);
  EXPECT_EQ(scenario.stats().retry_attempts, 1u);
}

TEST(FaultSessionTest, PartialLossKeepsSurvivors) {
  // With a moderate loss level, degraded rounds must still deliver
  // estimates for the responders that got through, and the union of
  // reports always covers every configured responder.
  ScenarioConfig cfg = office(4242, 4);
  cfg.fault = lossy_plan(0.45);
  cfg.resilience.max_retries = 2;
  ConcurrentRangingScenario scenario(cfg);
  int degraded_with_estimates = 0;
  for (int round = 0; round < 30; ++round) {
    const RoundOutcome out = scenario.run_round();
    ASSERT_EQ(out.responder_reports.size(), 4u);
    if (out.degraded && !out.estimates.empty()) ++degraded_with_estimates;
  }
  EXPECT_GT(degraded_with_estimates, 0);
  EXPECT_GT(scenario.fault_injector()->counters().total(), 0u);
}

TEST(FaultSessionTest, RetryBackoffScheduleIsDeterministic) {
  // Force total loss so every attempt fails, then verify the simulated
  // clock advanced by exactly sum of backoff * factor^(k-1) plus the
  // attempts' round time — i.e. the backoff schedule is the documented
  // closed form, not incidental.
  ScenarioConfig cfg = office(31, 2);
  cfg.fault.dropout_prob = 1.0;
  cfg.fault.dropout_rounds_min = 50;
  cfg.fault.dropout_rounds_max = 50;
  cfg.resilience.max_retries = 3;
  cfg.resilience.retry_backoff = Seconds(400e-6);
  cfg.resilience.backoff_factor = 2.0;

  // Reference: identical scenario with no retries = one attempt's duration.
  ScenarioConfig ref_cfg = cfg;
  ref_cfg.resilience.max_retries = 0;
  ConcurrentRangingScenario ref(ref_cfg);
  (void)ref.run_round();
  const double attempt_s = ref.simulator().now().seconds();

  ConcurrentRangingScenario scenario(cfg);
  const RoundOutcome out = scenario.run_round();
  EXPECT_EQ(out.attempts, 4);
  const double expected_s =
      4.0 * attempt_s + (400e-6) * (1.0 + 2.0 + 4.0);
  EXPECT_NEAR(scenario.simulator().now().seconds(), expected_s,
              1e-9);
}

TEST(FaultSessionTest, EveryRangingStatusReachable) {
  // Each fault mix runs enough rounds that missing its status is
  // practically impossible on any draw. The rarest is kCrcError: 17.0% of
  // 40 000 rounds of its mix show it (2 000 scenarios of 20 rounds; 46 of
  // them saw none, where independent rounds predict 48), Wilson 95% lower
  // bound 16.6%, so 90 rounds miss it with probability below 1e-7. Every
  // other status shows in at least 98% of its mix's rounds (4 000 rounds
  // each), so all five are seen except with probability below 1e-6
  // (EXPERIMENTS.md).
  constexpr int kRounds = 90;
  std::map<RangingStatus, int> seen;
  const auto tally = [&seen](const ScenarioConfig& cfg) {
    ConcurrentRangingScenario scenario(cfg);
    for (int i = 0; i < kRounds; ++i)
      for (const auto& rep : scenario.run_round().responder_reports)
        ++seen[rep.status];
  };

  tally(office(61, 3));  // healthy: kOk
  {
    ScenarioConfig cfg = office(62, 3);  // preamble misses: kNoPreamble
    cfg.fault.preamble_miss_prob = 0.8;
    tally(cfg);
  }
  {
    ScenarioConfig cfg = office(63, 2);  // CRC faults: kCrcError
    cfg.fault.crc_error_prob = 0.9;
    tally(cfg);
  }
  {
    ScenarioConfig cfg = office(64, 2);  // late TX aborts: kLateTxAbort
    cfg.fault.late_tx_abort_prob = 0.9;
    tally(cfg);
  }
  {
    ScenarioConfig cfg = office(65, 2);  // mute windows: kTimedOut
    cfg.fault.dropout_prob = 0.9;
    tally(cfg);
  }
  for (const auto status :
       {RangingStatus::kOk, RangingStatus::kNoPreamble,
        RangingStatus::kCrcError, RangingStatus::kLateTxAbort,
        RangingStatus::kTimedOut})
    EXPECT_GT(seen[status], 0) << to_string(status);
}

TEST(FaultInjectorTest, SnrDependentMissRatesPreferWeakFirstPaths) {
  // The effective miss probability scales with (ref_amp / amplitude)^exp:
  // a first path well below the reference must be missed far more often
  // than one well above it.
  fault::FaultPlan plan;
  plan.preamble_miss_prob = 0.2;
  plan.preamble_snr_exponent = 1.5;
  plan.preamble_snr_ref_amp = 0.05;
  fault::FaultInjector injector(plan, 42);
  int weak = 0, strong = 0;
  for (int i = 0; i < 2000; ++i) {
    if (injector.miss_preamble(0, /*first_path_amplitude=*/0.02)) ++weak;
    if (injector.miss_preamble(1, /*first_path_amplitude=*/0.5)) ++strong;
  }
  // Expected rates: ~0.79 vs ~0.006.
  EXPECT_GT(weak, 1200);
  EXPECT_LT(strong, 60);
  EXPECT_EQ(injector.counters().preamble_miss,
            static_cast<std::uint64_t>(weak + strong));
}

TEST(FaultSessionTest, ClockGlitchesPerturbButDoNotAbort) {
  // Drift steps and epoch jumps must leave the session functional: rounds
  // keep completing and distances stay plausible (CFO correction absorbs
  // drift; the wrap-aware arithmetic absorbs epoch jumps).
  ScenarioConfig cfg = office(67, 2);
  cfg.fault.drift_step_prob = 0.5;
  cfg.fault.drift_step_sigma_ppm = 2.0;
  cfg.fault.epoch_jump_prob = 0.3;
  cfg.fault.epoch_jump_max_s = 1.0;
  ConcurrentRangingScenario scenario(cfg);
  int decoded = 0, plausible = 0;
  for (int i = 0; i < 25; ++i) {
    const RoundOutcome out = scenario.run_round();
    if (!out.payload_decoded) continue;
    ++decoded;
    const double truth = scenario.true_distance(out.sync_responder_id).value();
    if (std::abs(out.d_twr_m - truth) < 0.5) ++plausible;
  }
  const auto& fc = scenario.fault_injector()->counters();
  EXPECT_GT(fc.clock_drift_step + fc.clock_epoch_jump, 0u);
  EXPECT_GT(decoded, 15);
  EXPECT_EQ(plausible, decoded);
}

TEST(FaultSessionTest, ReplyJitterSpreadsResponseSpacing) {
  // SS-TWR to the sync responder is immune to reply jitter (the responder
  // embeds its actual TX timestamp), so the observable effect is on the
  // *relative timing* of the concurrent responses. With the delayed-TX
  // truncation disabled (its ~8 ns quantisation would mask nanosecond
  // jitter) the round-to-round spread of the two responses' arrival
  // spacing is sigma * sqrt(2) — and near zero without jitter. A seed
  // passes when 2 ns of jitter spreads the spacing of 20 rounds by more
  // than 2 ns and by more than six times the jitter-free spread; the
  // documented rate is 1 921 of seeds 201-2 200 (EXPERIMENTS.md).
  const auto spacing_stddev = [](std::uint64_t seed, double jitter_sigma_s,
                                 bool* enough_rounds) {
    ScenarioConfig cfg = office(seed, 2);
    cfg.ranging.num_slots = 4;
    cfg.ranging.slot_spacing_s = 150e-9;
    cfg.delayed_tx_truncation = false;
    if (jitter_sigma_s > 0.0) {
      cfg.fault.reply_jitter_sigma_s = jitter_sigma_s;
    }
    ConcurrentRangingScenario scenario(cfg);
    std::vector<double> spacings;
    for (int i = 0; i < 20; ++i) {
      const RoundOutcome out = scenario.run_round();
      if (out.truths.size() != 2) continue;
      spacings.push_back((out.truths[1].resp_arrival.seconds() -
                          out.truths[0].resp_arrival.seconds()));
    }
    *enough_rounds = *enough_rounds && spacings.size() > 15u;
    double mean = 0.0;
    for (const double s : spacings) mean += s;
    mean /= static_cast<double>(spacings.size());
    double var = 0.0;
    for (const double s : spacings) var += (s - mean) * (s - mean);
    return std::sqrt(var / static_cast<double>(spacings.size()));
  };
  // The no-jitter floor is ~0.2 ns: the responders' noisy INIT RX
  // timestamps propagate into the reply schedule.
  acceptance::expect_pass_rate(
      1, 200, 1921.0 / 2000.0, [&spacing_stddev](std::uint64_t seed) {
        bool enough_rounds = true;
        const double base = spacing_stddev(seed, 0.0, &enough_rounds);
        const double jittered = spacing_stddev(seed, 2e-9, &enough_rounds);
        return enough_rounds && jittered > 2e-9 && jittered > 6.0 * base;
      });
}

TEST(FaultConfigTest, PlanValidation) {
  fault::FaultPlan plan;
  plan.preamble_miss_prob = 0.5;
  EXPECT_NO_THROW(plan.validate());
  EXPECT_TRUE(plan.active());

  plan.preamble_miss_prob = 1.5;
  EXPECT_THROW(plan.validate(), PreconditionError);
  plan.preamble_miss_prob = 0.5;
  plan.dropout_rounds_min = 3;
  plan.dropout_rounds_max = 1;
  EXPECT_THROW(plan.validate(), PreconditionError);
}

TEST(FaultConfigTest, OneProbabilityBuildsTheInjector) {
  // active() alone decides: a plan that sets one positive probability and
  // nothing else injects, with no separate switch to forget.
  ScenarioConfig cfg = office(5, 3);
  cfg.fault.crc_error_prob = 0.5;
  ConcurrentRangingScenario scenario(cfg);
  ASSERT_NE(scenario.fault_injector(), nullptr);
  for (int round = 0; round < 10; ++round) scenario.run_round();
  EXPECT_GT(scenario.fault_injector()->counters().total(), 0u);
}

TEST(FaultConfigTest, ValidateConfigStatusPath) {
  // validate_config enforces unique identifiability (id < slots x shapes) —
  // stricter than assign_responder's documented aliasing fallback — so the
  // slot plan here covers the three responder ids.
  ScenarioConfig cfg = office(1, 3);
  cfg.ranging.num_slots = 4;
  cfg.ranging.slot_spacing_s = 150e-9;
  EXPECT_TRUE(ConcurrentRangingScenario::validate_config(cfg).ok());

  ScenarioConfig no_resp = cfg;
  no_resp.responders.clear();
  const Status s1 = ConcurrentRangingScenario::validate_config(no_resp);
  EXPECT_EQ(s1.code(), ErrorCode::kInvalidConfig);
  EXPECT_FALSE(s1.message().empty());

  ScenarioConfig dup = cfg;
  dup.responders.push_back(dup.responders.front());
  EXPECT_FALSE(ConcurrentRangingScenario::validate_config(dup).ok());

  ScenarioConfig too_many = cfg;
  too_many.responders = {{0, {5.0, 4.0}}, {7, {6.0, 4.0}}};  // id 7 > 2x3-1
  too_many.ranging.num_slots = 2;
  too_many.ranging.shape_registers = {0x93};
  EXPECT_FALSE(ConcurrentRangingScenario::validate_config(too_many).ok());

  ScenarioConfig bad_fault = cfg;
  bad_fault.fault.crc_error_prob = 2.0;
  EXPECT_FALSE(ConcurrentRangingScenario::validate_config(bad_fault).ok());

  ScenarioConfig bad_resilience = cfg;
  bad_resilience.resilience.max_retries = -1;
  EXPECT_FALSE(
      ConcurrentRangingScenario::validate_config(bad_resilience).ok());

  // The factory returns the same diagnosis instead of constructing.
  auto created = ConcurrentRangingScenario::create(no_resp);
  EXPECT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), ErrorCode::kInvalidConfig);

  auto good = ConcurrentRangingScenario::create(cfg);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good.value()->run_round().completed);
}

}  // namespace
}  // namespace uwb::ranging
