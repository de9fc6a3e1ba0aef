// Edge-case integration tests: 40-bit counter wrap during a round, PRF 16
// configurations, data-rate variants, out-of-range responders, and failure
// injection.
#include <gtest/gtest.h>

#include <cmath>

#include "acceptance.hpp"
#include "common/constants.hpp"
#include "common/expects.hpp"
#include "common/units.hpp"
#include "ranging/session.hpp"

namespace uwb::ranging {
namespace {

ScenarioConfig base_scenario(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.room = geom::Room::rectangular(30.0, 10.0, 12.0);
  cfg.initiator_position = {2.0, 5.0};
  cfg.seed = seed;
  return cfg;
}

TEST(SessionEdgeTest, ManyRoundsSurviveCounterWrap) {
  // The 40-bit counter wraps every ~17.2 s. Rounds advance simulated time;
  // with clock epochs drawn in [0, 17 s), a long-running scenario crosses
  // wraps on several nodes. Accuracy must be unaffected.
  ScenarioConfig cfg = base_scenario(41);
  cfg.responders = {{0, {8.0, 5.0}}};
  ConcurrentRangingScenario scenario(cfg);
  int good = 0, rounds = 0;
  for (int t = 0; t < 60; ++t) {
    // Skip simulated time forward so device counters sweep their range.
    scenario.simulator().run_until(scenario.simulator().now() +
                                   SimTime::from_seconds(0.4));
    const auto out = scenario.run_round();
    if (!out.payload_decoded) continue;
    ++rounds;
    if (std::abs(out.d_twr_m - 6.0) < 0.15) ++good;
  }
  // 60 rounds over ~24 s of simulated time: > one full wrap per node.
  EXPECT_GE(rounds, 58);
  EXPECT_EQ(good, rounds);
}

TEST(SessionEdgeTest, Prf16Configuration) {
  // Seeds 1-200, each a fresh fading and timing draw (tests/acceptance.hpp).
  // The documented rate is 1752 of seeds 201-2200, which the test does not
  // run; seeds 1-200 pass 179.
  acceptance::expect_pass_rate(1, 200, 1752.0 / 2000.0, [](std::uint64_t seed) {
    ScenarioConfig cfg = base_scenario(seed);
    cfg.phy.prf = dw::Prf::Mhz16;
    cfg.cir.length = k::cir_len_prf16;
    cfg.responders = {{0, {6.0, 5.0}}, {1, {11.0, 5.0}}};
    ConcurrentRangingScenario scenario(cfg);
    const auto out = scenario.run_round();
    return out.payload_decoded &&
           out.cir.taps.size() == static_cast<std::size_t>(k::cir_len_prf16) &&
           out.estimates.size() == 2 &&
           std::abs(out.estimates[0].distance_m - 4.0) <= 0.2 &&
           std::abs(out.estimates[1].distance_m - 9.0) <= 0.8;
  });
}

TEST(SessionEdgeTest, DataRate850k) {
  // Slower data rate stretches the frames; the protocol must still work
  // with a correspondingly larger response delay.
  ScenarioConfig cfg = base_scenario(43);
  cfg.phy.rate = dw::DataRate::k850;
  dw::MacFrame init;
  init.type = dw::FrameType::Init;
  cfg.ranging.response_delay_s =
      dw::min_response_delay_s(cfg.phy, init.payload_bytes()) + 150e-6;
  cfg.responders = {{0, {7.0, 5.0}}};
  ConcurrentRangingScenario scenario(cfg);
  const auto out = scenario.run_round();
  ASSERT_TRUE(out.payload_decoded);
  EXPECT_NEAR(out.d_twr_m, 5.0, 0.15);
}

TEST(SessionEdgeTest, LongPreambleConfiguration) {
  ScenarioConfig cfg = base_scenario(44);
  cfg.phy.preamble_symbols = 1024;
  dw::MacFrame init;
  init.type = dw::FrameType::Init;
  cfg.ranging.response_delay_s =
      dw::min_response_delay_s(cfg.phy, init.payload_bytes()) + 150e-6;
  cfg.responders = {{0, {5.0, 5.0}}};
  ConcurrentRangingScenario scenario(cfg);
  const auto out = scenario.run_round();
  ASSERT_TRUE(out.payload_decoded);
  EXPECT_NEAR(out.d_twr_m, 3.0, 0.15);
}

TEST(SessionEdgeTest, TooShortResponseDelayAbortsLate) {
  // A response delay below the minimum makes the responder's delayed TX
  // start before the INIT has even finished arriving — the radio raises
  // HPDWARN and aborts the TX (runtime condition, not a precondition), so
  // the round degrades instead of the process aborting.
  ScenarioConfig cfg = base_scenario(45);
  cfg.ranging.response_delay_s = 100e-6;  // < 178.5 us minimum
  cfg.responders = {{0, {6.0, 5.0}}};
  ConcurrentRangingScenario scenario(cfg);
  const auto out = scenario.run_round();
  EXPECT_FALSE(out.payload_decoded);
  ASSERT_EQ(out.responder_reports.size(), 1u);
  EXPECT_EQ(out.responder_reports[0].status, RangingStatus::kLateTxAbort);
}

TEST(SessionEdgeTest, OutOfRangeResponderSilent) {
  // One responder is far beyond the detection threshold: the round still
  // completes with the remaining responder.
  ScenarioConfig cfg = base_scenario(46);
  cfg.room = geom::Room::rectangular(3000.0, 10.0, 12.0);
  cfg.responders = {{0, {8.0, 5.0}}, {1, {2900.0, 5.0}}};
  ConcurrentRangingScenario scenario(cfg);
  const auto out = scenario.run_round();
  ASSERT_TRUE(out.payload_decoded);
  EXPECT_EQ(out.frames_in_batch, 1);
  EXPECT_NEAR(out.d_twr_m, 6.0, 0.2);
  // The far responder never responded (it missed the INIT).
  EXPECT_EQ(out.truths.size(), 1u);
}

TEST(SessionEdgeTest, AllRespondersOutOfRange) {
  ScenarioConfig cfg = base_scenario(47);
  cfg.room = geom::Room::rectangular(5000.0, 10.0, 12.0);
  cfg.responders = {{0, {4500.0, 5.0}}};
  ConcurrentRangingScenario scenario(cfg);
  const auto out = scenario.run_round();
  EXPECT_FALSE(out.completed);
  EXPECT_FALSE(out.payload_decoded);
  EXPECT_TRUE(out.estimates.empty());
}

TEST(SessionEdgeTest, PowerImbalancedRespondersBothRanged) {
  // A ~12 dB power imbalance (5 m vs 23 m): the payload decodes from the
  // near responder and the weak far response is still extracted from the
  // CIR — amplitude-independent detection at work.
  ScenarioConfig cfg = base_scenario(48);
  cfg.responders = {{0, {7.0, 5.0}}, {1, {25.0, 5.0}}};
  cfg.detect_max_responses = 4;
  ConcurrentRangingScenario scenario(cfg);
  const auto out = scenario.run_round();
  ASSERT_TRUE(out.payload_decoded);
  EXPECT_EQ(out.sync_responder_id, 0);
  bool far_found = false;
  for (const auto& est : out.estimates)
    if (std::abs(est.distance_m - 23.0) < 1.2) far_found = true;
  EXPECT_TRUE(far_found);
}

TEST(SessionEdgeTest, UncalibratedAntennaDelayBiasesAndIsCorrectable) {
  // Uncalibrated 100 ns antenna delays inflate every SS-TWR distance by
  // ~c * 100 ns ~= 30 m; the APS014-style commissioning recovers the delay
  // from a known-distance link and the correction restores accuracy.
  ScenarioConfig cfg = base_scenario(51);
  cfg.antenna_delay = Seconds(100e-9);
  cfg.responders = {{0, {7.0, 5.0}}};  // true distance 5 m
  ConcurrentRangingScenario scenario(cfg);
  const auto out = scenario.run_round();
  ASSERT_TRUE(out.payload_decoded);
  EXPECT_NEAR(out.d_twr_m, 5.0 + 299'702'547.0 * 100e-9, 0.2);
  // Commission against the known 5 m link (symmetric delays: d_meas =
  // d_true + c * delay), then correct.
  const Seconds delay = tof_from_distance(Meters(out.d_twr_m) - Meters(5.0));
  EXPECT_NEAR(delay.value(), 100e-9, 1e-9);
  EXPECT_NEAR(
      (Meters(out.d_twr_m) - distance_from_tof(delay)).value(), 5.0, 0.05);
}

TEST(SessionEdgeTest, SameSeedSameOutcomeAcrossConfigCopies) {
  ScenarioConfig cfg = base_scenario(49);
  cfg.responders = {{0, {9.0, 5.0}}};
  ConcurrentRangingScenario a(cfg);
  ConcurrentRangingScenario b(cfg);
  EXPECT_DOUBLE_EQ(a.run_round().d_twr_m, b.run_round().d_twr_m);
}

TEST(SessionEdgeTest, MovingInitiatorBetweenRounds) {
  ScenarioConfig cfg = base_scenario(50);
  cfg.responders = {{0, {10.0, 5.0}}};
  ConcurrentRangingScenario scenario(cfg);
  const auto first = scenario.run_round();
  ASSERT_TRUE(first.payload_decoded);
  EXPECT_NEAR(first.d_twr_m, 8.0, 0.2);
  scenario.set_initiator_position({6.0, 5.0});
  EXPECT_DOUBLE_EQ(scenario.true_distance(0).value(), 4.0);
  const auto second = scenario.run_round();
  ASSERT_TRUE(second.payload_decoded);
  EXPECT_NEAR(second.d_twr_m, 4.0, 0.2);
}

}  // namespace
}  // namespace uwb::ranging
