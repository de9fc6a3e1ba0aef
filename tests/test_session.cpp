// Integration tests: full concurrent-ranging rounds through the simulator,
// covering the paper's core scenarios (Sect. III-VIII), which receivers
// render their CIR, and which frames draw their diffuse tail.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "acceptance.hpp"
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

// The paper's Fig. 4 round: responders at 3, 6 and 10 m in a hallway.
RoundOutcome fig4_round(std::uint64_t seed, bool delayed_tx_truncation) {
  ScenarioConfig cfg = hallway_scenario(seed);
  cfg.responders = {{0, {5.0, 1.2}}, {1, {8.0, 1.2}}, {2, {12.0, 1.2}}};
  cfg.delayed_tx_truncation = delayed_tx_truncation;
  ConcurrentRangingScenario scenario(cfg);
  return scenario.run_round();
}

bool near(double value, double want, double tolerance) {
  return std::abs(value - want) <= tolerance;
}

TEST(AcceptanceTest, WilsonBoundsOfTheDocumentedRates) {
  // Textbook value: 50 of 100 gives [0.404, 0.596] at 95%.
  EXPECT_NEAR(acceptance::wilson_lower_bound(0.5, 100), 0.40383, 1e-5);
  EXPECT_EQ(acceptance::min_passes(944.0 / 2000.0, 200), 81);
  EXPECT_EQ(acceptance::min_passes(1203.0 / 2000.0, 200), 107);
  EXPECT_EQ(acceptance::min_passes(0.0, 200), 0);
}

// Both Fig. 4 tests run seeds 1-200, each a fresh fading and timing draw,
// and count the seeds whose round meets the per-seed predicate. The
// documented rates are measured over seeds 201-2200, which the tests do
// not run, so a test's own count is not compared with itself
// (EXPERIMENTS.md, Fig. 4). Most misses are
// the anonymous scheme's limit, not noise: a coherent side-wall tie of the
// 3 m response outranks the 10 m response, and the detector stops after
// N = 3 peaks.

TEST(SessionTest, ThreeRespondersFig4Scenario) {
  // With the hardware delayed-TX truncation active, each non-decoded
  // response moves by up to +-8 ns (paper Sect. III) => +-0.6 m one-way
  // tolerance. Adverse draws also hide the second response behind the
  // first responder's multipath. The documented rate is 944 of 2000 seeds.
  acceptance::expect_pass_rate(1, 200, 944.0 / 2000.0, [](std::uint64_t seed) {
    const RoundOutcome out = fig4_round(seed, /*delayed_tx_truncation=*/true);
    // The detector orders responses by ascending distance (paper step 7).
    return out.completed && out.payload_decoded && out.frames_in_batch == 3 &&
           out.estimates.size() == 3 &&
           near(out.estimates[0].distance_m, 3.0, 0.3) &&
           near(out.estimates[1].distance_m, 6.0, 0.75) &&
           near(out.estimates[2].distance_m, 10.0, 0.75);
  });
}

TEST(SessionTest, ThreeRespondersIdealTxTiming) {
  // Ablation: with ideal (un-truncated) delayed TX the concurrent distances
  // are centimetre-accurate whenever the three responses are the three
  // peaks picked, isolating the truncation as the error source. The
  // documented rate is 1203 of 2000 seeds.
  acceptance::expect_pass_rate(1, 200, 1203.0 / 2000.0, [](std::uint64_t seed) {
    const RoundOutcome out = fig4_round(seed, /*delayed_tx_truncation=*/false);
    return out.payload_decoded && out.estimates.size() == 3 &&
           near(out.estimates[0].distance_m, 3.0, 0.1) &&
           near(out.estimates[1].distance_m, 6.0, 0.1) &&
           near(out.estimates[2].distance_m, 10.0, 0.1);
  });
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
// its link stream; nu(t) is completed (`channel_diffuse` span) only where it
// is read: at RX for every frame of a multi-frame batch, whose SIR check
// sums each frame's power, and for a lone frame only when its capture is
// rendered. Frames for a radio that is off, late for a batch, abandoned or
// alone in a capture nobody renders never draw one.

/// Tails drawn and frames delivered since construction; records the flight
/// recorder meanwhile, to count the frames that RX completes.
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
  /// Frames of the completed batches that held more than one frame
  /// (`rx_batch_complete` carries the batch size in v0).
  std::uint64_t multi_frame() const {
    std::uint64_t n = 0;
    for (const obs::FrRecord& r : obs::FlightRecorder::instance().collect()) {
      if (std::strcmp(r.name, "rx_batch_complete") != 0) continue;
      EXPECT_STREQ(r.v0.key, "frames_in_batch");
      const auto frames = static_cast<std::uint64_t>(r.v0.value);
      if (frames > 1) n += frames;
    }
    return n;
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
  EXPECT_EQ(out.frames_in_batch, 3);
  // INIT to 3 responders, 3 RESPs to the initiator and to the 2 other
  // responders, whose radios are off by then. Only the initiator's batch
  // of 3 draws tails: each responder's INIT is a lone frame, never
  // rendered.
  EXPECT_EQ(delta.delivered(), 12u);
  EXPECT_EQ(delta.tails(), 3u);
  EXPECT_EQ(delta.tails(), delta.multi_frame());
  // One medium_fanout span per transmitted frame (INIT + 3 RESPs).
  const std::uint64_t sent =
      scenario.medium().stats().frames_transmitted - transmitted;
  EXPECT_EQ(sent, 4u);
  EXPECT_EQ(span_count("medium_fanout") - fanouts, sent);
}

TEST(DiffuseTailTest, SingleResponderRoundDrawsTheTailAtRender) {
  // The initiator's batch holds one RESP: nothing at RX reads its tail, so
  // it is drawn once, when the initiator renders its CIR.
  ScenarioConfig cfg = hallway_scenario(8);
  cfg.responders = {{0, {5.0, 1.2}}};
  ConcurrentRangingScenario scenario(cfg);
  const TailDelta delta;
  const SpanDelta renders;
  const RoundOutcome out = scenario.run_round();
  ASSERT_TRUE(out.payload_decoded);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.frames_in_batch, 1);
  EXPECT_EQ(renders.renders(), 1u);
  EXPECT_EQ(delta.delivered(), 2u);  // INIT, RESP
  EXPECT_EQ(delta.multi_frame(), 0u);
  EXPECT_EQ(delta.tails(), 1u);
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
  EXPECT_EQ(round.frames_in_batch, 3);
  EXPECT_EQ(delta.tails(), delta.multi_frame());
  EXPECT_EQ(delta.tails(), 3u);
  EXPECT_EQ(delta.delivered(), 12u);
}

TEST(DiffuseTailTest, DsTwrDrawsOnlySuperposedTails) {
  // POLL, RESP and FINAL each arrive alone, and DS-TWR renders no CIR.
  DsTwrSession session(DsTwrSessionConfig{});
  const TailDelta delta;
  const DsTwrResult result = session.run_round();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(delta.multi_frame(), 0u);
  EXPECT_EQ(delta.tails(), 0u);
  EXPECT_EQ(delta.delivered(), 3u);
}

}  // namespace
}  // namespace uwb::ranging
