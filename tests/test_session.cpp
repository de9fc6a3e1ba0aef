// Integration tests: full concurrent-ranging rounds through the simulator,
// covering the paper's core scenarios (Sect. III-VIII), which receivers
// render their CIR, and which frames draw their diffuse tail.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/constants.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "ranging/dstwr.hpp"
#include "ranging/network.hpp"
#include "ranging/session.hpp"

namespace uwb::ranging {
namespace {

ScenarioConfig hallway_scenario(std::uint64_t seed) {
  ScenarioConfig cfg;
  // Paper-like hallway with plasterboard-grade walls: side-wall reflections
  // stay well below the direct paths, as in the measured CIR of Fig. 4a.
  cfg.room = geom::Room::hallway(40.0, 2.4, /*reflection_loss_db=*/12.0);
  cfg.initiator_position = {2.0, 1.2};
  cfg.seed = seed;
  return cfg;
}

TEST(SessionTest, SingleResponderTwrAccuracy) {
  ScenarioConfig cfg = hallway_scenario(42);
  cfg.responders = {{0, {5.0, 1.2}}};  // 3 m away
  ConcurrentRangingScenario scenario(cfg);
  const RoundOutcome out = scenario.run_round();
  ASSERT_TRUE(out.completed);
  ASSERT_TRUE(out.payload_decoded);
  EXPECT_EQ(out.sync_responder_id, 0);
  EXPECT_NEAR(out.d_twr_m, 3.0, 0.15);
  ASSERT_GE(out.estimates.size(), 1u);
  EXPECT_NEAR(out.estimates.front().distance_m, 3.0, 0.15);
}

TEST(SessionTest, ThreeRespondersFig4Scenario) {
  // Paper Fig. 4: responders at 3, 6, and 10 m in a hallway. With the
  // hardware delayed-TX truncation active, each non-decoded response moves
  // by up to +-8 ns (paper Sect. III) => +-0.6 m one-way tolerance. The
  // seed picks a typical fading draw: adverse draws can hide the second
  // response behind first-responder multipath in this geometry.
  ScenarioConfig cfg = hallway_scenario(8);
  cfg.responders = {{0, {5.0, 1.2}}, {1, {8.0, 1.2}}, {2, {12.0, 1.2}}};
  ConcurrentRangingScenario scenario(cfg);
  const RoundOutcome out = scenario.run_round();
  ASSERT_TRUE(out.completed);
  ASSERT_TRUE(out.payload_decoded);
  EXPECT_EQ(out.frames_in_batch, 3);
  ASSERT_EQ(out.estimates.size(), 3u);
  // The detector orders responses by ascending distance (paper step 7).
  EXPECT_NEAR(out.estimates[0].distance_m, 3.0, 0.3);
  EXPECT_NEAR(out.estimates[1].distance_m, 6.0, 0.75);
  EXPECT_NEAR(out.estimates[2].distance_m, 10.0, 0.75);
}

TEST(SessionTest, ThreeRespondersIdealTxTiming) {
  // Ablation: with ideal (un-truncated) delayed TX the concurrent distances
  // are centimetre-accurate, isolating the truncation as the error source.
  ScenarioConfig cfg = hallway_scenario(8);
  cfg.responders = {{0, {5.0, 1.2}}, {1, {8.0, 1.2}}, {2, {12.0, 1.2}}};
  cfg.delayed_tx_truncation = false;
  ConcurrentRangingScenario scenario(cfg);
  const RoundOutcome out = scenario.run_round();
  ASSERT_TRUE(out.payload_decoded);
  ASSERT_EQ(out.estimates.size(), 3u);
  EXPECT_NEAR(out.estimates[0].distance_m, 3.0, 0.1);
  EXPECT_NEAR(out.estimates[1].distance_m, 6.0, 0.1);
  EXPECT_NEAR(out.estimates[2].distance_m, 10.0, 0.1);
}

TEST(SessionTest, RepeatedRoundsAdvanceTime) {
  ScenarioConfig cfg = hallway_scenario(3);
  cfg.responders = {{0, {6.0, 1.2}}};
  ConcurrentRangingScenario scenario(cfg);
  const SimTime before = scenario.simulator().now();
  const RoundOutcome a = scenario.run_round();
  const SimTime mid = scenario.simulator().now();
  const RoundOutcome b = scenario.run_round();
  EXPECT_TRUE(a.completed);
  EXPECT_TRUE(b.completed);
  EXPECT_GT(mid, before);
  EXPECT_GT(scenario.simulator().now(), mid);
}

// --- who renders the CIR -----------------------------------------------------
//
// Every receiver captures its accumulator (`cir_synthesis` span); only the
// consumer that reads the taps renders it (`cir_render`). Responders only
// timestamp the frames they receive.

std::uint64_t span_count(const char* name) {
  const obs::Snapshot snap = obs::MetricsRegistry::instance().aggregate();
  const obs::Snapshot::SpanTotal* span = snap.span(name);
  return span == nullptr ? 0 : span->count;
}

struct SpanDelta {
  std::uint64_t captured = span_count("cir_synthesis");
  std::uint64_t rendered = span_count("cir_render");

  std::uint64_t captures() const {
    return span_count("cir_synthesis") - captured;
  }
  std::uint64_t renders() const { return span_count("cir_render") - rendered; }
};

TEST(CirRenderTest, Fig4RoundRendersOnlyTheInitiatorsCir) {
  ScenarioConfig cfg = hallway_scenario(8);
  cfg.responders = {{0, {5.0, 1.2}}, {1, {8.0, 1.2}}, {2, {12.0, 1.2}}};
  ConcurrentRangingScenario scenario(cfg);
  const SpanDelta delta;
  const RoundOutcome out = scenario.run_round();
  ASSERT_TRUE(out.payload_decoded);
  EXPECT_EQ(out.attempts, 1);
  // Three responders capture the INIT, the initiator the RESP batch.
  EXPECT_EQ(delta.captures(), 4u);
  EXPECT_EQ(delta.renders(), 1u);
  EXPECT_EQ(out.cir.taps.size(), static_cast<std::size_t>(cfg.cir.length));
}

TEST(CirRenderTest, ResilientSessionRendersAtMostOncePerAttempt) {
  ScenarioConfig cfg = hallway_scenario(31);
  cfg.responders = {{0, {5.0, 1.2}}, {1, {8.0, 1.2}}, {2, {12.0, 1.2}}};
  cfg.fault.enabled = true;
  cfg.fault.preamble_miss_prob = 0.3;
  cfg.fault.crc_error_prob = 0.3 / 4.0;
  cfg.fault.late_tx_abort_prob = 0.3 / 4.0;
  cfg.fault.dropout_prob = 0.3 / 8.0;
  cfg.resilience.max_retries = 2;
  ConcurrentRangingScenario scenario(cfg);
  const SpanDelta delta;
  constexpr int kRounds = 20;
  std::uint64_t attempts = 0, completed = 0;
  for (int round = 0; round < kRounds; ++round) {
    const RoundOutcome out = scenario.run_round();
    attempts += static_cast<std::uint64_t>(out.attempts);
    if (out.completed) ++completed;
  }
  EXPECT_GT(attempts, static_cast<std::uint64_t>(kRounds));  // retries ran
  EXPECT_LE(delta.renders(), attempts);
  // Every outcome that carries a CIR rendered it.
  EXPECT_GE(delta.renders(), completed);
}

TEST(CirRenderTest, NetworkRoundRendersOnce) {
  NetworkConfig cfg;
  cfg.room = geom::Room::rectangular(16.0, 10.0, 10.0);
  cfg.node_positions = {{2.0, 2.0}, {13.0, 2.5}, {12.5, 8.0}, {3.0, 7.5}};
  cfg.ranging.num_slots = 4;
  cfg.ranging.slot_spacing_s = 150e-9;
  cfg.seed = 1;
  NetworkRangingSession session(cfg);
  const SpanDelta delta;
  const NetworkRound round = session.run_round(0);
  ASSERT_TRUE(round.completed);
  EXPECT_EQ(delta.captures(), 4u);
  EXPECT_EQ(delta.renders(), 1u);
}

TEST(CirRenderTest, DsTwrNeverRenders) {
  DsTwrSession session(DsTwrSessionConfig{});
  const SpanDelta delta;
  const DsTwrResult result = session.run_round();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(delta.captures(), 3u);  // POLL, RESP, FINAL
  EXPECT_EQ(delta.renders(), 0u);
}

// --- who draws the diffuse tail ---------------------------------------------
//
// The medium decides a frame from its specular taps and schedules it with
// its link stream; only a receiver that superposes the frame into a CIR
// completes nu(t) (`channel_diffuse` span). Frames for a radio that is off,
// late for a batch or abandoned never draw one.

/// Tails drawn and frames delivered since construction; records the flight
/// recorder meanwhile, to count the frames that reached a finalize_batch.
class TailDelta {
 public:
  TailDelta() {
    obs::FlightRecorder::instance().reset();
    obs::FlightRecorder::set_enabled(true);
  }
  ~TailDelta() {
    obs::FlightRecorder::set_enabled(false);
    obs::FlightRecorder::instance().reset();
  }
  TailDelta(const TailDelta&) = delete;
  TailDelta& operator=(const TailDelta&) = delete;

  std::uint64_t tails() const { return span_count("channel_diffuse") - tails_; }
  std::uint64_t delivered() const { return delivered_count() - delivered_; }
  /// Batch leads and joins, minus the frames exit_rx abandoned.
  std::uint64_t superposed() const {
    std::uint64_t n = 0, abandoned = 0;
    for (const obs::FrRecord& r : obs::FlightRecorder::instance().collect()) {
      if (std::strcmp(r.name, "rx_batch_lead") == 0 ||
          std::strcmp(r.name, "rx_batch_join") == 0)
        ++n;
      if (std::strcmp(r.name, "rx_abandoned") == 0) ++abandoned;
    }
    return n - abandoned;
  }

 private:
  static std::uint64_t delivered_count() {
    return obs::MetricsRegistry::instance().aggregate().counter(
        "medium_frames_delivered");
  }

  std::uint64_t tails_ = span_count("channel_diffuse");
  std::uint64_t delivered_ = delivered_count();
};

TEST(DiffuseTailTest, Fig4RoundDrawsOnlySuperposedTails) {
  ScenarioConfig cfg = hallway_scenario(8);
  cfg.responders = {{0, {5.0, 1.2}}, {1, {8.0, 1.2}}, {2, {12.0, 1.2}}};
  ConcurrentRangingScenario scenario(cfg);
  const TailDelta delta;
  const std::uint64_t fanouts = span_count("medium_fanout");
  const std::uint64_t transmitted =
      scenario.medium().stats().frames_transmitted;
  const RoundOutcome out = scenario.run_round();
  ASSERT_TRUE(out.payload_decoded);
  EXPECT_EQ(out.attempts, 1);
  // INIT to 3 responders, 3 RESPs to the initiator and to the 2 other
  // responders, whose radios are off by then.
  EXPECT_EQ(delta.delivered(), 12u);
  EXPECT_EQ(delta.tails(), 6u);
  EXPECT_EQ(delta.tails(), delta.superposed());
  // One medium_fanout span per transmitted frame (INIT + 3 RESPs).
  const std::uint64_t sent =
      scenario.medium().stats().frames_transmitted - transmitted;
  EXPECT_EQ(sent, 4u);
  EXPECT_EQ(span_count("medium_fanout") - fanouts, sent);
}

TEST(DiffuseTailTest, NetworkRoundDrawsOnlySuperposedTails) {
  NetworkConfig cfg;
  cfg.room = geom::Room::rectangular(16.0, 10.0, 10.0);
  cfg.node_positions = {{2.0, 2.0}, {13.0, 2.5}, {12.5, 8.0}, {3.0, 7.5}};
  cfg.ranging.num_slots = 4;
  cfg.ranging.slot_spacing_s = 150e-9;
  cfg.seed = 1;
  NetworkRangingSession session(cfg);
  const TailDelta delta;
  const NetworkRound round = session.run_round(0);
  ASSERT_TRUE(round.completed);
  EXPECT_EQ(delta.tails(), delta.superposed());
  EXPECT_EQ(delta.tails(), 6u);
  EXPECT_EQ(delta.delivered(), 12u);
}

TEST(DiffuseTailTest, DsTwrDrawsOnlySuperposedTails) {
  DsTwrSession session(DsTwrSessionConfig{});
  const TailDelta delta;
  const DsTwrResult result = session.run_round();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(delta.tails(), delta.superposed());
  EXPECT_EQ(delta.tails(), 3u);  // POLL, RESP, FINAL
  EXPECT_EQ(delta.delivered(), 3u);
}

}  // namespace
}  // namespace uwb::ranging
