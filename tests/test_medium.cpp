// Unit tests: Medium propagation details and the detector trace API.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "common/constants.hpp"
#include "common/hash.hpp"
#include "dw1000/cir.hpp"
#include "fault/attack.hpp"
#include "obs/metrics.hpp"
#include "ranging/search_subtract.hpp"
#include "sim/medium.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace uwb::sim {
namespace {

struct Bench {
  Simulator sim;
  std::unique_ptr<Medium> medium;

  explicit Bench(double detect_amp = 0.02, std::uint64_t seed = 1,
                 geom::Room room = geom::Room::rectangular(100.0, 50.0, 10.0),
                 channel::ChannelModelParams ch = {}) {
    MediumParams mp;
    mp.detection_threshold_amp = detect_amp;
    medium = std::make_unique<Medium>(
        sim, channel::ChannelModel(std::move(room), ch), mp, Rng(seed));
  }
};

NodeConfig node_cfg(int id, geom::Vec2 pos) {
  NodeConfig nc;
  nc.id = id;
  nc.position = pos;
  return nc;
}

TEST(MediumTest, PropagationDelayMatchesDistance) {
  Bench bench;
  channel::ChannelModelParams ch;
  Node tx(bench.sim, *bench.medium, node_cfg(0, {10.0, 25.0}), Rng(2));
  Node rx(bench.sim, *bench.medium, node_cfg(1, {40.0, 25.0}), Rng(3));
  std::optional<RxResult> got;
  rx.set_rx_handler([&](const RxResult& r) { got = r; });
  rx.enter_rx();
  dw::MacFrame f;
  f.type = dw::FrameType::Init;
  SimTime tx_time;
  bench.sim.after(SimTime::from_micros(5.0), [&] {
    tx_time = bench.sim.now();
    tx.transmit_now(f);
  });
  bench.sim.run();
  ASSERT_TRUE(got.has_value());
  // Completion = frame end arrival + processing margin; frame end is the
  // TX start + air time + propagation (30 m ~= 100 ns).
  const double airtime = rx.phy().frame_duration_s(f.payload_bytes());
  const double expected_completion =
      tx_time.seconds() + airtime + 30.0 / k::c_air;
  EXPECT_NEAR(got->completed_at.seconds(), expected_completion, 3e-6);
}

TEST(MediumTest, HighThresholdDropsWeakFrames) {
  // With an absurd detection threshold nothing is ever delivered.
  Bench bench(/*detect_amp=*/10.0);
  Node tx(bench.sim, *bench.medium, node_cfg(0, {10.0, 25.0}), Rng(2));
  Node rx(bench.sim, *bench.medium, node_cfg(1, {12.0, 25.0}), Rng(3));
  std::optional<RxResult> got;
  rx.set_rx_handler([&](const RxResult& r) { got = r; });
  rx.enter_rx();
  dw::MacFrame f;
  bench.sim.after(SimTime::from_micros(5.0), [&] { tx.transmit_now(f); });
  bench.sim.run();
  EXPECT_FALSE(got.has_value());
  rx.exit_rx();
}

TEST(MediumTest, ChannelRedrawnPerFrame) {
  // Two consecutive receptions draw fresh fading: the CIRs differ.
  Bench bench(0.02, 7);
  Node tx(bench.sim, *bench.medium, node_cfg(0, {10.0, 25.0}), Rng(2));
  Node rx(bench.sim, *bench.medium, node_cfg(1, {20.0, 25.0}), Rng(3));
  std::vector<CVec> cirs;
  rx.set_rx_handler(
      [&](const RxResult& r) { cirs.push_back(r.cir.render().taps); });
  dw::MacFrame f;
  for (int i = 0; i < 2; ++i) {
    bench.sim.after(SimTime::from_micros(5.0), [&] {
      rx.enter_rx();
    });
    bench.sim.after(SimTime::from_micros(10.0), [&] { tx.transmit_now(f); });
    bench.sim.run();
  }
  ASSERT_EQ(cirs.size(), 2u);
  double diff = 0.0;
  for (std::size_t i = 0; i < cirs[0].size(); ++i)
    diff += std::abs(cirs[0][i] - cirs[1][i]);
  EXPECT_GT(diff, 0.1);
}

TEST(MediumTest, ObstructedDirectPathLocksToReflection) {
  // Bury the direct path: the receiver's first detectable path is a wall
  // reflection, so the reported ToF is biased long.
  geom::Room room = geom::Room::rectangular(30.0, 10.0, 3.0);
  room.add_obstacle({{{15.0, 4.0}, {15.0, 6.0}}, 40.0});
  channel::ChannelModelParams ch;
  ch.specular_fading_db = 0.0;
  ch.enable_diffuse = false;
  Bench bench(0.02, 9, room, ch);
  Node tx(bench.sim, *bench.medium, node_cfg(0, {10.0, 5.0}), Rng(2));
  Node rx(bench.sim, *bench.medium, node_cfg(1, {20.0, 5.0}), Rng(3));
  std::optional<RxResult> got;
  rx.set_rx_handler([&](const RxResult& r) { got = r; });
  rx.enter_rx();
  dw::MacFrame f;
  dw::DwTimestamp tx_ts;
  bench.sim.after(SimTime::from_micros(5.0),
                  [&] { tx_ts = tx.transmit_now(f); });
  bench.sim.run();
  ASSERT_TRUE(got.has_value());
  const double tof = got->rx_timestamp.diff_seconds(tx_ts).value();
  // Direct path is 10 m; the shortest reflection is noticeably longer.
  EXPECT_GT(tof, 10.5 / k::c_air);
}

// --- the receiver completes the channel the probe saw ----------------------
//
// A frame travels with its specular stage and link stream; the receiver
// that superposes it draws the diffuse tail. The probe completes a copy at
// TX time, so the two must agree bit for bit.

/// Three concurrent transmitters, one listening node. Returns the number of
/// arrivals the listener superposed; every one must equal, in order, the
/// probe's taps of the batch frames concatenated in arrival order.
std::size_t expect_listener_superposes_probe_taps(
    fault::AttackInjector* attack, int ghosts_from, int ghost_count) {
  Bench bench(0.02, 5);
  bench.medium->set_attack_injector(attack);
  Node rx(bench.sim, *bench.medium, node_cfg(0, {10.0, 25.0}), Rng(2));
  std::vector<std::unique_ptr<Node>> txs;
  for (int i = 1; i <= 3; ++i)
    txs.push_back(std::make_unique<Node>(
        bench.sim, *bench.medium,
        node_cfg(i, {10.0 + 3.0 * i, 25.0 + 0.5 * i}), Rng(10 + i)));

  struct Seen {
    std::vector<channel::Tap> taps;
    double first_delay_s = 0.0;
  };
  std::map<int, Seen> seen;  // tx id -> the frame the probe saw at rx
  bench.medium->set_delivery_probe([&](int rx_id, const AirFrame& af) {
    if (rx_id == rx.id())
      seen[af.tx_node_id] = {af.taps, af.first_detectable_delay.value()};
  });
  std::optional<RxResult> got;
  rx.set_rx_handler([&](RxResult&& r) { got = std::move(r); });
  rx.enter_rx();
  dw::MacFrame f;
  f.type = dw::FrameType::Resp;
  bench.sim.after(SimTime::from_micros(5.0), [&] {
    for (auto& tx : txs) tx->transmit_now(f);
  });
  bench.sim.run();

  EXPECT_TRUE(got.has_value());
  if (!got) return 0;
  EXPECT_EQ(got->batch_tx_node_ids.size(), txs.size());
  std::vector<Complex> want;
  for (const int tx : got->batch_tx_node_ids) {
    const Seen& frame = seen.at(tx);
    const auto& taps = frame.taps;
    // The channel is sorted by delay; an attacker's ghosts follow it, all
    // ahead of the legitimate first path.
    const std::size_t n_ghosts =
        tx == ghosts_from ? static_cast<std::size_t>(ghost_count) : 0;
    EXPECT_GT(taps.size(), n_ghosts);
    const auto channel_end =
        taps.end() - static_cast<std::ptrdiff_t>(n_ghosts);
    EXPECT_TRUE(std::is_sorted(
        taps.begin(), channel_end,
        [](const channel::Tap& a, const channel::Tap& b) {
          return a.delay_s < b.delay_s;
        }));
    // The diffuse tail is there.
    EXPECT_TRUE(std::any_of(taps.begin(), channel_end,
                            [](const channel::Tap& t) {
                              return !t.deterministic;
                            }));
    for (auto it = channel_end; it != taps.end(); ++it) {
      EXPECT_FALSE(it->deterministic);
      EXPECT_LT(it->delay_s, frame.first_delay_s);
    }
    for (const channel::Tap& t : taps) want.push_back(t.amplitude);
  }
  const std::vector<dw::CirArrival>& arrivals = got->cir.arrivals;
  EXPECT_EQ(arrivals.size(), want.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < std::min(arrivals.size(), want.size()); ++i)
    if (double_bits(arrivals[i].amplitude.real()) !=
            double_bits(want[i].real()) ||
        double_bits(arrivals[i].amplitude.imag()) !=
            double_bits(want[i].imag()))
      ++differing;
  EXPECT_EQ(differing, 0u);
  return arrivals.size();
}

TEST(ChannelCompletionTest, ListenerSuperposesTheProbesTaps) {
  EXPECT_GT(expect_listener_superposes_probe_taps(nullptr, -1, 0), 3u);
}

TEST(ChannelCompletionTest, GhostTapsFollowTheCompletedChannel) {
  fault::AttackSpec spec;
  spec.attacker_id = 2;
  spec.kind = fault::AttackKind::kGhostPeak;
  spec.ghost_advance_s = 3e-9;
  spec.ghost_rel_amplitude = 0.8;
  spec.ghost_count = 2;
  fault::AttackPlan plan;
  plan.specs = {spec};
  fault::AttackInjector attack(plan, 99);
  EXPECT_GT(expect_listener_superposes_probe_taps(&attack, 2, 2), 3u);
  EXPECT_GT(attack.counters().ghost_taps, 0u);
}

// --- a lone frame is completed by the render --------------------------------
//
// Nothing at RX reads the channel of a frame alone in its batch, so the
// capture keeps the frame as delivered and render() completes a copy.

std::uint64_t tails_drawn() {
  const obs::Snapshot snap = obs::MetricsRegistry::instance().aggregate();
  const obs::Snapshot::SpanTotal* span = snap.span("channel_diffuse");
  return span == nullptr ? 0 : span->count;
}

/// One transmitter, one listener. The medium lives as long as the link, so
/// a result kept by the handler can be rendered afterwards.
struct LoneFrameLink {
  Bench bench{0.02, 5};
  NodeConfig rx_config = node_cfg(0, {10.0, 25.0});
  Node rx{bench.sim, *bench.medium, rx_config, Rng(2)};
  Node tx{bench.sim, *bench.medium, node_cfg(1, {13.0, 25.5}), Rng(11)};
  /// The frame as the delivery probe saw it: completed on a copy of its
  /// link stream.
  std::optional<AirFrame> seen;

  /// Send one frame; `handler` receives the listener's result.
  void send(std::function<void(RxResult&&)> handler) {
    bench.medium->set_delivery_probe([this](int rx_id, const AirFrame& af) {
      if (rx_id == rx.id()) seen = af;
    });
    rx.set_rx_handler(std::move(handler));
    rx.enter_rx();
    bench.sim.after(SimTime::from_micros(5.0),
                    [this] { tx.transmit_now(dw::MacFrame{}); });
    bench.sim.run();
  }
};

TEST(ChannelCompletionTest, LoneFrameRenderIsTheProbesTapsOverTheNoise) {
  LoneFrameLink link;
  std::optional<RxResult> got;
  link.send([&](RxResult&& r) { got = std::move(r); });
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(link.seen.has_value());
  ASSERT_EQ(got->frames_in_batch, 1);
  // Nothing was superposed at RX: the capture holds the noise key alone.
  EXPECT_TRUE(got->cir.arrivals.empty());
  const dw::CirParams& params = link.rx_config.cir;
  ASSERT_GT(params.noise_sigma, 0.0);
  EXPECT_EQ(got->cir.noise_sigma, params.noise_sigma);

  // The probe's taps, timed into the window anchored kCirAnchorTaps
  // before the frame's first path, over the captured noise.
  const AirFrame& seen = *link.seen;
  const double anchor = static_cast<double>(kCirAnchorTaps);
  dw::CirCapture want;
  want.length = params.length;
  want.ts_s = params.ts_s;
  want.first_path_index = anchor;
  want.noise_key = got->cir.noise_key;
  want.noise_sigma = got->cir.noise_sigma;
  const double window_start_s =
      seen.preamble_start_arrival.seconds() - anchor * params.ts_s;
  const double tx_ref_s = seen.preamble_start_arrival.seconds() -
                          seen.first_detectable_delay.value();
  for (const channel::Tap& tap : seen.taps) {
    dw::CirArrival a;
    a.time_into_window_s = tx_ref_s + tap.delay_s - window_start_s;
    a.amplitude = tap.amplitude;
    a.tc_pgdelay = seen.tc_pgdelay;
    want.arrivals.push_back(a);
  }
  EXPECT_GT(want.arrivals.size(), 3u);
  const dw::CirEstimate expected = want.render();
  const dw::CirEstimate cir = got->cir.render();
  EXPECT_EQ(cir.first_path_index, expected.first_path_index);
  ASSERT_EQ(cir.taps.size(), expected.taps.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < cir.taps.size(); ++i)
    if (double_bits(cir.taps[i].real()) !=
            double_bits(expected.taps[i].real()) ||
        double_bits(cir.taps[i].imag()) != double_bits(expected.taps[i].imag()))
      ++differing;
  EXPECT_EQ(differing, 0u);
}

TEST(ChannelCompletionTest, LoneFrameRendersTheSameTapsTwice) {
  LoneFrameLink link;
  std::optional<RxResult> got;
  link.send([&](RxResult&& r) { got = std::move(r); });
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->frames_in_batch, 1);
  const CVec first = got->cir.render().taps;
  const RxResult copy = *got;
  EXPECT_EQ(got->cir.render().taps, first);
  EXPECT_EQ(copy.cir.render().taps, first);
}

TEST(ChannelCompletionTest, LoneFrameDrawsItsTailOnlyWhenRendered) {
  {
    LoneFrameLink link;
    const std::uint64_t before = tails_drawn();
    bool got = false;
    link.send([&](RxResult&&) { got = true; });  // dropped unrendered
    ASSERT_TRUE(got);
    EXPECT_EQ(tails_drawn() - before, 0u);
  }
  LoneFrameLink link;
  const std::uint64_t before = tails_drawn();
  std::optional<RxResult> got;
  link.send([&](RxResult&& r) { got = std::move(r); });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(tails_drawn() - before, 0u);  // the probe's copy is not counted
  EXPECT_FALSE(got->cir.render().taps.empty());
  EXPECT_EQ(tails_drawn() - before, 1u);
}

TEST(DetectorTraceTest, TraceMatchesDetect) {
  dw::CirParams params;
  params.noise_sigma = 0.004;
  Rng rng(11);
  std::vector<dw::CirArrival> arrivals;
  for (int i = 0; i < 3; ++i) {
    dw::CirArrival a;
    a.time_into_window_s = (80.0 + 60.0 * i) * k::cir_ts_s;
    a.amplitude = {0.4 - 0.1 * i, 0.0};
    arrivals.push_back(a);
  }
  const auto cir = dw::synthesize_cir(arrivals, params, rng);
  ranging::SearchSubtractDetector det{ranging::DetectorConfig{}};
  const auto plain = det.detect(cir.taps, cir.ts_s, 3);
  const auto trace = det.detect_with_trace(cir.taps, cir.ts_s, 3);
  ASSERT_EQ(plain.size(), trace.responses.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_DOUBLE_EQ(plain[i].tau_s, trace.responses[i].tau_s);
  // One matched-filter snapshot per accepted iteration (or one more if the
  // stop check rejected a candidate after recording it).
  EXPECT_GE(trace.mf_outputs.size(), plain.size());
  EXPECT_LE(trace.mf_outputs.size(), plain.size() + 1);
  EXPECT_GT(trace.ts_up, 0.0);
  // Successive residual peaks are non-increasing.
  double prev_peak = 1e9;
  for (const auto& y : trace.mf_outputs) {
    double peak = 0.0;
    for (const auto& v : y) peak = std::max(peak, std::abs(v));
    EXPECT_LE(peak, prev_peak + 1e-9);
    prev_peak = peak;
  }
}

}  // namespace
}  // namespace uwb::sim
