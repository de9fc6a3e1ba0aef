// Spatially-sharded medium (DESIGN.md Sect. 13): uniform grid, interference
// radius derivation, floor-plan generation, the culling determinism
// contract — culled and unculled runs bit-identical for every delivered
// frame — and the two link gates: the exact radius cull and the
// specular-first (Eq. 1) detectability decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "channel/channel_model.hpp"
#include "channel/path_loss.hpp"
#include "common/hash.hpp"
#include "geom/grid.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "ranging/session.hpp"
#include "runner/monte_carlo.hpp"
#include "sim/floorplan.hpp"
#include "sim/medium.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace uwb::sim {
namespace {

// ---------------------------------------------------------------------------
// UniformGrid

TEST(GridTest, PackUnpackRoundTripsNegativeCoordinates) {
  for (const std::int32_t ix : {-1000000, -3, -1, 0, 1, 7, 1000000}) {
    for (const std::int32_t iy : {-999, -1, 0, 2, 31337}) {
      const geom::CellKey key = geom::UniformGrid::pack(ix, iy);
      EXPECT_EQ(geom::UniformGrid::cell_ix(key), ix);
      EXPECT_EQ(geom::UniformGrid::cell_iy(key), iy);
    }
  }
}

TEST(GridTest, BucketsPointsDeterministically) {
  const std::vector<geom::Vec2> points = {
      {0.5, 0.5}, {1.5, 0.5}, {0.6, 0.4}, {-0.5, -0.5}};
  geom::UniformGrid grid(points, 1.0);
  EXPECT_EQ(grid.point_count(), 4u);
  ASSERT_EQ(grid.cells().size(), 3u);
  const geom::UniformGrid::Cell* origin = grid.find(grid.key_of({0.5, 0.5}));
  ASSERT_NE(origin, nullptr);
  EXPECT_EQ(origin->indices, (std::vector<std::int32_t>{0, 2}));
  EXPECT_EQ(grid.find(geom::UniformGrid::pack(50, 50)), nullptr);
}

TEST(GridTest, NeighborhoodCoversEveryPointWithinCellSize) {
  Rng rng(99);
  std::vector<geom::Vec2> points;
  for (int i = 0; i < 400; ++i)
    points.push_back({rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)});
  const double radius = 7.5;
  geom::UniformGrid grid(points, radius);
  std::vector<std::int32_t> out;
  for (int probe = 0; probe < 50; ++probe) {
    const geom::Vec2 p{rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)};
    out.clear();
    grid.neighborhood(p, out);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    // Every point within the radius must be a candidate, and every
    // candidate's cell must report in_neighborhood.
    std::vector<bool> candidate(points.size(), false);
    for (const std::int32_t i : out) {
      candidate[static_cast<std::size_t>(i)] = true;
      EXPECT_TRUE(grid.in_neighborhood(
          p, grid.key_of(points[static_cast<std::size_t>(i)])));
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (geom::distance(p, points[i]) <= radius) {
        EXPECT_TRUE(candidate[i]);
      }
      if (!candidate[i]) {
        EXPECT_FALSE(grid.in_neighborhood(p, grid.key_of(points[i])));
      }
    }
  }
}

TEST(GridTest, EmptyGridReturnsNothing) {
  geom::UniformGrid grid;
  std::vector<std::int32_t> out;
  grid.neighborhood({0.0, 0.0}, out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(grid.cells().empty());
}

// ---------------------------------------------------------------------------
// Interference radius

TEST(RangeBoundTest, SolvesLogDistanceLawAtThreshold) {
  channel::ChannelModelParams ch;
  ch.path_loss_exponent = 3.5;
  const channel::ChannelModel model(geom::Room::rectangular(10.0, 10.0), ch);
  const double threshold = 0.02;
  const double margin_db = 16.0;
  const double d = model.max_detectable_range(threshold, margin_db).value();
  ASSERT_TRUE(std::isfinite(d));
  // At the bound, the best-case LOS amplitude (margin applied) equals the
  // threshold.
  const double amp =
      channel::loss_db_to_amplitude(
          channel::log_distance_loss_db(d, ch.path_loss_exponent, 0.0) -
          margin_db);
  EXPECT_NEAR(amp, threshold, 1e-9);
}

TEST(RangeBoundTest, DegenerateParamsYieldNoFiniteBound) {
  channel::ChannelModelParams ch;
  ch.path_loss_exponent = 1.8;
  const channel::ChannelModel model(geom::Room::rectangular(10.0, 10.0), ch);
  EXPECT_TRUE(std::isinf(model.max_detectable_range(0.0, 16.0).value()));
  channel::ChannelModelParams flat;
  flat.path_loss_exponent = 0.0;
  const channel::ChannelModel no_loss(geom::Room::rectangular(10.0, 10.0),
                                      flat);
  EXPECT_TRUE(std::isinf(no_loss.max_detectable_range(0.02, 16.0).value()));
}

// ---------------------------------------------------------------------------
// Floor plan

TEST(FloorPlanTest, PlanForNodesCoversRequestedDensity) {
  const FloorPlanConfig cfg = plan_for_nodes(200, 2.0);
  EXPECT_GE(cfg.rooms_x * cfg.rooms_y, 100);
  const FloorPlanConfig one = plan_for_nodes(1, 2.0);
  EXPECT_EQ(one.rooms_x * one.rooms_y, 1);
}

TEST(FloorPlanTest, PlacementIsDeterministicAndInBounds) {
  FloorPlanConfig cfg;
  cfg.rooms_x = 4;
  cfg.rooms_y = 3;
  const FloorPlan plan = make_floor_plan(cfg);
  EXPECT_EQ(plan.room_count(), 12);
  EXPECT_DOUBLE_EQ(plan.width_m(), 24.0);
  EXPECT_DOUBLE_EQ(plan.height_m(), 15.0);
  const auto a = place_nodes(plan, 30, 42);
  const auto b = place_nodes(plan, 30, 42);
  ASSERT_EQ(a.size(), 30u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
    EXPECT_GE(a[i].x, cfg.placement_margin_m);
    EXPECT_LE(a[i].x, plan.width_m() - cfg.placement_margin_m);
    EXPECT_GE(a[i].y, cfg.placement_margin_m);
    EXPECT_LE(a[i].y, plan.height_m() - cfg.placement_margin_m);
  }
  EXPECT_NE(place_nodes(plan, 30, 43)[0].x, a[0].x);
}

TEST(FloorPlanTest, PartitionsAttenuateButDoorwaysDoNot) {
  FloorPlanConfig cfg;
  cfg.rooms_x = 2;
  cfg.rooms_y = 1;
  const FloorPlan plan = make_floor_plan(cfg);
  // Straight through the partition's solid span: attenuated.
  EXPECT_GT(plan.room.obstruction_loss_db({5.0, 1.0}, {7.0, 1.0}), 0.0);
  // Straight through the doorway (centered at y = room_h/2): clear.
  EXPECT_EQ(plan.room.obstruction_loss_db({5.0, 2.5}, {7.0, 2.5}), 0.0);
}

// ---------------------------------------------------------------------------
// Culling determinism contract

channel::ChannelModelParams scale_channel() {
  channel::ChannelModelParams ch;
  // Through-building propagation: steeper decay, LOS only (the partitions
  // attenuate; they are not image-source walls), diffuse on.
  ch.path_loss_exponent = 3.5;
  ch.max_reflection_order = 0;
  return ch;
}

struct Delivery {
  int rx = -1;
  int tx = -1;
  std::int64_t preamble_ps = 0;
  std::int64_t rmarker_ps = 0;
  std::int64_t end_ps = 0;
  std::uint64_t taps_digest = 0;
  std::uint64_t amp_bits = 0;
  std::uint64_t first_delay_bits = 0;
  bool missed = false;

  bool operator==(const Delivery&) const = default;
};

Delivery digest(int rx_id, const AirFrame& af) {
  Delivery d;
  d.rx = rx_id;
  d.tx = af.tx_node_id;
  d.preamble_ps = af.preamble_start_arrival.ps();
  d.rmarker_ps = af.rmarker_arrival.ps();
  d.end_ps = af.frame_end_arrival.ps();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const channel::Tap& t : af.taps) {
    h = hash_combine(h, double_bits(t.delay_s));
    h = hash_combine(h, double_bits(t.amplitude.real()));
    h = hash_combine(h, double_bits(t.amplitude.imag()));
  }
  d.taps_digest = h;
  d.amp_bits = double_bits(af.first_path_amplitude);
  d.first_delay_bits = double_bits(af.first_detectable_delay.value());
  d.missed = af.preamble_missed;
  return d;
}

/// A raw many-node rig: floorplan placement, every node transmits a few
/// frames round-robin, deliveries recorded via the medium's probe.
std::vector<Delivery> run_traffic(bool culling, int node_count,
                                  std::uint64_t seed, int frames_per_node,
                                  MediumStats* stats_out = nullptr) {
  const FloorPlan plan = make_floor_plan(plan_for_nodes(node_count));
  const auto positions = place_nodes(plan, node_count, seed);

  Simulator sim;
  MediumParams mp;
  mp.culling_enabled = culling;
  // Short-range radio (~4 m links): the derived radius (~11 m) is smaller
  // than the building, so the grid actually culls.
  mp.detection_threshold_amp = 0.1;
  Medium medium(sim, channel::ChannelModel(plan.room, scale_channel()), mp,
                Rng(seed));
  std::vector<Delivery> deliveries;
  medium.set_delivery_probe([&](int rx_id, const AirFrame& af) {
    deliveries.push_back(digest(rx_id, af));
  });

  std::vector<std::unique_ptr<Node>> nodes;
  Rng node_seeds(derive_seed(seed, 0x50A7));
  for (int i = 0; i < node_count; ++i) {
    NodeConfig nc;
    nc.id = i;
    nc.position = positions[static_cast<std::size_t>(i)];
    nodes.push_back(
        std::make_unique<Node>(sim, medium, nc, node_seeds.fork()));
  }

  dw::MacFrame f;
  f.type = dw::FrameType::Init;
  for (int round = 0; round < frames_per_node; ++round) {
    for (int i = 0; i < node_count; ++i) {
      sim.after(
          SimTime::from_micros(200.0 * (round * node_count + i) + 5.0),
          [&, i] { nodes[static_cast<std::size_t>(i)]->transmit_now(f); });
      sim.run();
    }
  }
  if (stats_out != nullptr) *stats_out = medium.stats();
  return deliveries;
}

TEST(CullingIdentityTest, DeliveredFramesByteIdenticalWithCullingOnOrOff) {
  for (const std::uint64_t seed : {1ull, 17ull, 3333ull}) {
    MediumStats culled_stats;
    MediumStats full_stats;
    const auto culled = run_traffic(true, 60, seed, 1, &culled_stats);
    const auto full = run_traffic(false, 60, seed, 1, &full_stats);
    // Identical deliveries, in identical order: taps, arrival instants,
    // first-path fields, fault flags.
    EXPECT_EQ(culled, full);
    EXPECT_EQ(culled_stats.frames_delivered, full_stats.frames_delivered);
    // The sharded run must actually skip work.
    EXPECT_GT(culled_stats.receivers_culled, 0u);
    EXPECT_LT(culled_stats.channels_realized, full_stats.channels_realized);
  }
}

TEST(CullingIdentityTest, CullingInactiveForRoomScaleDefaults) {
  // The default channel (exponent 1.8) bounds detectability at hundreds of
  // meters — larger than any room scenario, so the derived radius must
  // never cull room-scale receivers (it may still be finite).
  Simulator sim;
  Medium medium(sim,
                channel::ChannelModel(geom::Room::rectangular(20.0, 10.0), {}),
                MediumParams{}, Rng(1));
  EXPECT_GT(medium.interference_radius_m(), 100.0);
}

TEST(CullingIdentityTest, OutOfRangeReceiverNeverDelivered) {
  // Property test against the *unculled* medium: beyond the derived radius
  // no frame is ever detectable, which is exactly what makes culling safe.
  channel::ChannelModelParams ch = scale_channel();
  const geom::Room room = geom::Room::rectangular(400.0, 50.0, 10.0);
  const channel::ChannelModel model(room, ch);
  MediumParams mp;
  const double radius =
      model.max_detectable_range(mp.detection_threshold_amp,
                                 mp.range_margin_db)
          .value();
  ASSERT_TRUE(std::isfinite(radius));
  ASSERT_LT(radius + 30.0, 400.0);

  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Simulator sim;
    mp.culling_enabled = false;
    Medium medium(sim, channel::ChannelModel(room, ch), mp, Rng(seed));
    int delivered = 0;
    medium.set_delivery_probe(
        [&](int, const AirFrame&) { ++delivered; });
    NodeConfig a;
    a.id = 0;
    a.position = {10.0, 25.0};
    NodeConfig b;
    b.id = 1;
    b.position = {10.0 + radius + 1.0, 25.0};
    Node tx(sim, medium, a, Rng(derive_seed(seed, 1)));
    Node rx(sim, medium, b, Rng(derive_seed(seed, 2)));
    dw::MacFrame f;
    sim.after(SimTime::from_micros(5.0), [&] { tx.transmit_now(f); });
    sim.run();
    EXPECT_EQ(delivered, 0) << "seed " << seed;
  }
}

TEST(CullingIdentityTest, MovedNodeRejoinsNeighborhood) {
  // set_position must invalidate the spatial index: a node moved out of
  // range stops receiving, moved back it receives again.
  const geom::Room room = geom::Room::rectangular(500.0, 50.0, 10.0);
  Simulator sim;
  MediumParams mp;
  Medium medium(sim, channel::ChannelModel(room, scale_channel()), mp,
                Rng(5));
  const double radius = medium.interference_radius_m();
  ASSERT_TRUE(std::isfinite(radius));
  int delivered = 0;
  medium.set_delivery_probe([&](int, const AirFrame&) { ++delivered; });
  NodeConfig a;
  a.id = 0;
  a.position = {10.0, 25.0};
  NodeConfig b;
  b.id = 1;
  b.position = {14.0, 25.0};
  Node tx(sim, medium, a, Rng(2));
  Node rx(sim, medium, b, Rng(3));
  dw::MacFrame f;
  sim.after(SimTime::from_micros(5.0), [&] { tx.transmit_now(f); });
  sim.run();
  EXPECT_EQ(delivered, 1);

  rx.set_position({10.0 + 3.0 * radius, 25.0});
  sim.after(SimTime::from_micros(5.0), [&] { tx.transmit_now(f); });
  sim.run();
  EXPECT_EQ(delivered, 1);  // culled: not even realized
  EXPECT_GT(medium.stats().receivers_culled, 0u);

  rx.set_position({14.0, 25.0});
  sim.after(SimTime::from_micros(5.0), [&] { tx.transmit_now(f); });
  sim.run();
  EXPECT_EQ(delivered, 2);
}

// Count and sum of the registry's medium_frame_fanout histogram so far.
std::pair<std::uint64_t, double> fanout_totals() {
  const obs::Snapshot snap = obs::MetricsRegistry::instance().aggregate();
  const obs::Histogram* h = snap.histogram("medium_frame_fanout");
  if (h == nullptr) return {0, 0.0};
  return {h->count(), h->sum()};
}

TEST(CullingIdentityTest, CellTrafficAccountsEveryReceiver) {
  MediumStats stats;
  const FloorPlan plan = make_floor_plan(plan_for_nodes(40));
  const auto positions = place_nodes(plan, 40, 9);
  Simulator sim;
  MediumParams mp;
  Medium medium(sim, channel::ChannelModel(plan.room, scale_channel()), mp,
                Rng(9));
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < 40; ++i) {
    NodeConfig nc;
    nc.id = i;
    nc.position = positions[static_cast<std::size_t>(i)];
    nodes.push_back(
        std::make_unique<Node>(sim, medium, nc, Rng(derive_seed(9, i))));
  }
  const auto [fanout_count0, fanout_sum0] = fanout_totals();
  dw::MacFrame f;
  for (int i = 0; i < 40; ++i) {
    sim.after(SimTime::from_micros(200.0 * i + 5.0),
              [&, i] { nodes[static_cast<std::size_t>(i)]->transmit_now(f); });
    sim.run();
  }
  const auto [fanout_count1, fanout_sum1] = fanout_totals();
  stats = medium.stats();
  ASSERT_TRUE(medium.culling_active());
  EXPECT_EQ(stats.frames_transmitted, 40u);
  // Per-frame receiver accounting closes: realized + culled = N - 1.
  EXPECT_EQ(stats.channels_realized + stats.receivers_culled, 40u * 39u);
  EXPECT_EQ(stats.channels_realized,
            stats.frames_delivered + stats.below_threshold);
  std::uint64_t cell_delivered = 0;
  std::uint64_t cell_culled = 0;
  std::uint64_t cell_below = 0;
  for (const CellTraffic& c : medium.cell_traffic()) {
    cell_delivered += c.delivered;
    cell_culled += c.culled;
    cell_below += c.below_threshold;
  }
  EXPECT_EQ(cell_delivered, stats.frames_delivered);
  EXPECT_EQ(cell_culled, stats.receivers_culled);
  EXPECT_EQ(cell_below, stats.below_threshold);
  // Per-cell accounting closes exactly: every one of the N-1 potential
  // receivers of every frame lands in exactly one bucket.
  EXPECT_EQ(cell_delivered + cell_culled + cell_below, 40u * 39u);

  // The registry fan-out histogram gains one observation per transmitted
  // frame, summing to the delivered totals.
  EXPECT_EQ(fanout_count1 - fanout_count0, stats.frames_transmitted);
  EXPECT_DOUBLE_EQ(fanout_sum1 - fanout_sum0,
                   static_cast<double>(stats.frames_delivered));
}

// ---------------------------------------------------------------------------
// Radius gate: inside the 3x3 neighborhood, every receiver farther than the
// interference radius is culled without a path lookup or a draw.

TEST(RadiusGateTest, NoReceiverBeyondRadiusIsRealized) {
  constexpr int kNodes = 60;
  const FloorPlan plan = make_floor_plan(plan_for_nodes(kNodes));
  const auto positions = place_nodes(plan, kNodes, 21);
  Simulator sim;
  MediumParams mp;
  mp.detection_threshold_amp = 0.1;  // ~11 m radius, well inside the floor
  Medium medium(sim, channel::ChannelModel(plan.room, scale_channel()), mp,
                Rng(21));
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < kNodes; ++i) {
    NodeConfig nc;
    nc.id = i;
    nc.position = positions[static_cast<std::size_t>(i)];
    nodes.push_back(
        std::make_unique<Node>(sim, medium, nc, Rng(derive_seed(21, i))));
  }
  ASSERT_TRUE(medium.culling_active());
  const double radius = medium.interference_radius_m();
  const geom::UniformGrid& grid = medium.spatial_index();

  // Expected split of every (tx, rx) pair, from positions alone.
  std::uint64_t in_radius = 0;
  std::uint64_t gated_in_neighborhood = 0;
  std::map<geom::CellKey, std::uint64_t> culled_per_cell;
  for (int tx = 0; tx < kNodes; ++tx) {
    for (int rx = 0; rx < kNodes; ++rx) {
      if (rx == tx) continue;
      const geom::Vec2 a = positions[static_cast<std::size_t>(tx)];
      const geom::Vec2 b = positions[static_cast<std::size_t>(rx)];
      if (geom::distance(a, b) <= radius) {
        ++in_radius;
        continue;
      }
      ++culled_per_cell[grid.key_of(b)];
      if (grid.in_neighborhood(a, grid.key_of(b))) ++gated_in_neighborhood;
    }
  }
  // The scene must exercise the radius gate, not only the grid.
  ASSERT_GT(gated_in_neighborhood, 0u);

  obs::FlightRecorder::set_enabled(true);
  obs::FlightRecorder::instance().reset();
  dw::MacFrame f;
  for (int i = 0; i < kNodes; ++i) {
    sim.after(SimTime::from_micros(200.0 * i + 5.0),
              [&, i] { nodes[static_cast<std::size_t>(i)]->transmit_now(f); });
    sim.run();
  }
  obs::FlightRecorder::set_enabled(false);
  const std::vector<obs::FrRecord> events =
      obs::FlightRecorder::instance().collect();
  const std::uint64_t dropped =
      obs::FlightRecorder::instance().dropped_events();
  obs::FlightRecorder::instance().reset();

  const MediumStats& stats = medium.stats();
  const std::uint64_t pairs = kNodes * (kNodes - 1);
  EXPECT_EQ(stats.channels_realized, in_radius);
  EXPECT_EQ(stats.receivers_culled, pairs - in_radius);
  // The closures: every pair is realized or culled, and every realized
  // link delivers or falls below threshold.
  EXPECT_EQ(stats.channels_realized + stats.receivers_culled, pairs);
  EXPECT_EQ(stats.channels_realized,
            stats.frames_delivered + stats.below_threshold);
  std::map<geom::CellKey, std::uint64_t> got_per_cell;
  for (const CellTraffic& c : medium.cell_traffic())
    if (c.culled > 0) got_per_cell[c.key] = c.culled;
  EXPECT_EQ(got_per_cell, culled_per_cell);

  ASSERT_EQ(dropped, 0u);
  const auto link_distance = [&](const obs::FrRecord& e) {
    return geom::distance(positions[static_cast<std::size_t>(e.peer)],
                          positions[static_cast<std::size_t>(e.node)]);
  };
  std::uint64_t realized_events = 0;
  std::uint64_t culled_events = 0;
  for (const obs::FrRecord& e : events) {
    if (e.kind != obs::FrKind::kChannel) continue;
    if (std::strcmp(e.name, "culled") == 0) {
      ++culled_events;
      EXPECT_GT(e.v0.value, radius);
      EXPECT_EQ(e.v0.value, link_distance(e));
      EXPECT_EQ(e.v1.value, radius);
    } else if (std::strcmp(e.name, "delivered") == 0 ||
               std::strcmp(e.name, "below_threshold") == 0) {
      ++realized_events;
      EXPECT_LE(link_distance(e), radius);
    }
  }
  EXPECT_EQ(realized_events, stats.channels_realized);
  EXPECT_EQ(culled_events, stats.receivers_culled);
}

// ---------------------------------------------------------------------------
// Session-level identity and thread-count determinism on the sharded path

ranging::ScenarioConfig floorplan_scenario(std::uint64_t seed, int responders,
                                           bool culling) {
  // One node per room, as in bench_ext_scale: the interference radius is
  // smaller than the floor, so distant responders get culled, while the
  // initiator's neighbors still hear it and range. Sparser placements
  // leave the initiator out of everyone's range, and the identity checks
  // below would compare empty rounds.
  const FloorPlan plan =
      make_floor_plan(plan_for_nodes(responders + 1, /*nodes_per_room=*/1.0));
  const auto positions = place_nodes(plan, responders + 1, seed);
  ranging::ScenarioConfig cfg;
  cfg.room = plan.room;
  cfg.channel = scale_channel();
  cfg.medium.culling_enabled = culling;
  cfg.medium.detection_threshold_amp = 0.05;
  cfg.initiator_position = plan.center();
  for (int i = 0; i < responders; ++i)
    cfg.responders.push_back({i, positions[static_cast<std::size_t>(i)]});
  cfg.ranging.num_slots = 32;
  cfg.ranging.slot_spacing_s = 150e-9;
  cfg.detect_max_responses = 8;
  cfg.slot_aware_selection = true;
  cfg.seed = seed;
  return cfg;
}

std::uint64_t outcome_digest(const ranging::RoundOutcome& out) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = hash_combine(h, out.completed ? 1 : 0);
  h = hash_combine(h, out.payload_decoded ? 1 : 0);
  h = hash_combine(h, static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(out.sync_responder_id)));
  h = hash_combine(h, double_bits(out.d_twr_m));
  h = hash_combine(h, out.estimates.size());
  for (const auto& e : out.estimates)
    h = hash_combine(h, double_bits(e.distance_m));
  for (const auto& r : out.responder_reports)
    h = hash_combine(h, static_cast<std::uint64_t>(r.status));
  for (const auto& c : out.cir.taps) {
    h = hash_combine(h, double_bits(c.real()));
    h = hash_combine(h, double_bits(c.imag()));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Specular gate: a delivered frame carries exactly the full realization of
// its link stream — deciding on the specular taps first and completing the
// diffuse tail only for deliverable links moves no draw.

/// The per-(link, frame) stream index sim::Medium realizes a link on.
std::uint64_t link_stream(int tx, int rx) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tx)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(rx));
}

bool same_taps(const std::vector<channel::Tap>& a,
               const std::vector<channel::Tap>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (double_bits(a[i].delay_s) != double_bits(b[i].delay_s) ||
        double_bits(a[i].amplitude.real()) !=
            double_bits(b[i].amplitude.real()) ||
        double_bits(a[i].amplitude.imag()) !=
            double_bits(b[i].amplitude.imag()) ||
        a[i].deterministic != b[i].deterministic || a[i].order != b[i].order)
      return false;
  return true;
}

/// Frames checked by check_deliveries_against_realize, how many of them
/// locked to a reflection (the LOS tap below threshold), and how many had
/// another qualifying specular tap at exactly the first path's delay.
struct GateCheck {
  std::uint64_t frames = 0;
  std::uint64_t reflection_first = 0;
  std::uint64_t ties = 0;
};

/// Runs `rounds` rounds of `cfg` and checks every AirFrame the delivery
/// probe sees against ChannelModel::realize() on the frame's link stream.
void check_deliveries_against_realize(const ranging::ScenarioConfig& cfg,
                                      int rounds, GateCheck& out) {
  std::map<int, geom::Vec2> position{{-1, cfg.initiator_position}};
  for (const ranging::ResponderSpec& r : cfg.responders)
    position[r.id] = r.position;
  const channel::ChannelModel model(cfg.room, cfg.channel);
  const double threshold = cfg.medium.detection_threshold_amp;

  ranging::ConcurrentRangingScenario scenario(cfg);
  std::uint64_t checked = 0;
  scenario.medium().set_delivery_probe([&](int rx, const AirFrame& af) {
    ++checked;
    Rng rng(derive_seed(af.chain, link_stream(af.tx_node_id, rx)));
    const channel::ChannelRealization ch =
        model.realize(position.at(af.tx_node_id), position.at(rx), rng);
    EXPECT_TRUE(same_taps(af.taps, ch.taps))
        << af.tx_node_id << " -> " << rx;
    // The first path is the earliest specular tap at or above threshold,
    // the first in image-source order on a tie.
    Rng stage_rng(derive_seed(af.chain, link_stream(af.tx_node_id, rx)));
    const channel::SpecularStage stage = model.realize_specular(
        position.at(af.tx_node_id), position.at(rx), stage_rng);
    const channel::Tap* first = nullptr;
    bool tie = false;
    for (const channel::Tap& t : stage.channel.taps) {
      if (std::abs(t.amplitude) < threshold) continue;
      if (first == nullptr || t.delay_s < first->delay_s) {
        first = &t;
        tie = false;
      } else if (t.delay_s == first->delay_s) {
        tie = true;
      }
    }
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(double_bits(af.first_detectable_delay.value()),
              double_bits(first->delay_s));
    EXPECT_EQ(double_bits(af.first_path_amplitude),
              double_bits(std::abs(first->amplitude)));
    // The sorted realization lists that tap first among its equals.
    const auto sorted_first = std::find_if(
        ch.taps.begin(), ch.taps.end(), [&](const channel::Tap& t) {
          return t.deterministic && std::abs(t.amplitude) >= threshold;
        });
    ASSERT_NE(sorted_first, ch.taps.end());
    EXPECT_EQ(double_bits(std::abs(sorted_first->amplitude)),
              double_bits(std::abs(first->amplitude)));
    if (first->order > 0) ++out.reflection_first;
    if (tie) ++out.ties;
  });
  for (int r = 0; r < rounds; ++r) scenario.run_round();
  EXPECT_EQ(checked, scenario.medium().stats().frames_delivered);
  out.frames += checked;
}

TEST(SpecularGateTest, HallwayDeliveriesCarryRealizeTaps) {
  // The Fig. 4 hallway: first-order reflections, diffuse tail, responders
  // at 3, 6 and 10 m along y = 1 m. The blocked variants bury the direct
  // path to the two far responders behind a cabinet, so their frames lock
  // to a wall reflection — the case where the choice of first path
  // matters. Mirroring the line across the hallway (y = 1.4 m) swaps which
  // wall gives the earlier reflection; on the hallway's axis (y = 1.2 m)
  // the two reflections have the same length, so they tie exactly and the
  // first path is the first of them in image-source order, whatever the
  // standard library's sort does with equal keys.
  GateCheck check;
  for (const int variant : {0, 1, 2, 3}) {
    const double y = variant == 2 ? 1.4 : variant == 3 ? 1.2 : 1.0;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
      ranging::ScenarioConfig cfg;
      cfg.room = geom::Room::hallway(40.0, 2.4, /*reflection_loss_db=*/15.0);
      if (variant > 0)
        cfg.room.add_obstacle(
            {{{6.5, y - 0.4}, {6.5, y + 0.4}}, 40.0, "cabinet"});
      cfg.initiator_position = {2.0, y};
      cfg.responders = {{0, {5.0, y}}, {1, {8.0, y}}, {2, {12.0, y}}};
      cfg.seed = seed;
      check_deliveries_against_realize(cfg, 2, check);
    }
  }
  EXPECT_GT(check.frames, 0u);
  EXPECT_GT(check.reflection_first, 0u);
  EXPECT_GT(check.ties, 0u);
}

TEST(SpecularGateTest, BuildingDeliveriesCarryRealizeTaps) {
  // The through-building scale channel with both gates active.
  GateCheck check;
  for (const std::uint64_t seed : {11ull, 77ull})
    check_deliveries_against_realize(floorplan_scenario(seed, 24, true), 2,
                                     check);
  EXPECT_GT(check.frames, 0u);
}

TEST(SessionCullingTest, RoundOutcomeBitIdenticalToUncutReference) {
  for (const std::uint64_t seed : {11ull, 77ull}) {
    ranging::ConcurrentRangingScenario culled(
        floorplan_scenario(seed, 24, true));
    ranging::ConcurrentRangingScenario full(
        floorplan_scenario(seed, 24, false));
    for (int round = 0; round < 3; ++round) {
      const auto a = culled.run_round();
      const auto b = full.run_round();
      EXPECT_EQ(outcome_digest(a), outcome_digest(b))
          << "seed " << seed << " round " << round;
    }
    EXPECT_TRUE(culled.medium().culling_active());
    EXPECT_GT(culled.medium().stats().receivers_culled, 0u);
    EXPECT_GT(culled.medium().stats().frames_delivered, 0u);
    EXPECT_FALSE(full.medium().culling_active());
  }
}

TEST(SessionCullingTest, MonteCarloBitIdenticalAcrossThreadCounts) {
  const auto run = [](int threads) {
    runner::MonteCarlo::Config cfg;
    cfg.threads = threads;
    cfg.base_seed = 2026;
    runner::MonteCarlo mc(cfg);
    return mc.run(12, [](const runner::TrialContext& ctx,
                         runner::TrialRecorder& rec) {
      ranging::ConcurrentRangingScenario scenario(
          floorplan_scenario(ctx.seed, 16, true));
      const auto out = scenario.run_round();
      rec.sample("digest", static_cast<double>(outcome_digest(out) >> 11));
      rec.count("delivered",
                static_cast<std::int64_t>(
                    scenario.medium().stats().frames_delivered));
    });
  };
  const auto one = run(1);
  const auto four = run(4);
  ASSERT_EQ(one.samples("digest").size(), four.samples("digest").size());
  for (std::size_t i = 0; i < one.samples("digest").size(); ++i)
    EXPECT_EQ(one.samples("digest")[i], four.samples("digest")[i]);
  EXPECT_EQ(one.counter("delivered"), four.counter("delivered"));
  EXPECT_GT(one.counter("delivered"), 0);
}

}  // namespace
}  // namespace uwb::sim
