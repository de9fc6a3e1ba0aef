// Steady-state heap allocations of the four `// uwb-hot-path` functions,
// reached through their public callers, and of the obstacle grid each
// channel model builds.
//
// This binary replaces the global operator new with a counting one. Each
// test first warms its caller up (thread-local shards and handles, the
// process-wide detector and FFT plans, the detector's thread-local working
// set, the event queue's capacity); those allocations happen once per
// process, thread or size and are not part of the contract. It then pins
// the exact count per call, so a new allocation anywhere under a hot path
// fails here in every build type and under the sanitizers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "channel/channel_model.hpp"
#include "common/constants.hpp"
#include "dw1000/cir.hpp"
#include "geom/room.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "ranging/search_subtract.hpp"
#include "sim/floorplan.hpp"
#include "sim/medium.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace uwb {
namespace {

/// Heap allocations made while `fn` runs.
template <class Fn>
std::uint64_t allocations_in(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(HotPathAllocTest, CounterSeesHeapAllocations) {
  // Guards every pin below against a replacement that stopped counting.
  // Direct calls, unlike new-expressions, cannot be elided.
  EXPECT_EQ(allocations_in([] {
              ::operator delete(::operator new(16));
              ::operator delete[](::operator new[](16));
              ::operator delete(::operator new(64, std::align_val_t{64}),
                                std::align_val_t{64});
            }),
            3u);
}

// Histogram::observe through the metrics macro, its public record path.
void observe_fanout(double value) {
  UWB_OBS_HISTOGRAM("hot_path_alloc_fanout", obs::fanout_buckets(), value);
}

TEST(HotPathAllocTest, HistogramObserveAllocatesNothing) {
  observe_fanout(1.0);  // registers the histogram in this thread's shard
  EXPECT_EQ(allocations_in([] {
              for (int i = 0; i < 1000; ++i) observe_fanout(0.5 * i);
            }),
            0u);
}

// FrShard::record through UWB_FR_EVENT with the recorder on.
void record_event(int i) {
  UWB_FR_EVENT(.kind = obs::FrKind::kChannel, .name = "hot_path_alloc",
               .chain = 7, .node = i, .v0 = {"i", static_cast<double>(i)});
}

TEST(HotPathAllocTest, FrShardRecordAllocatesNothing) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  recorder.set_capacity(64);
  obs::FlightRecorder::set_enabled(true);
  record_event(0);  // registers this thread's shard
  // 1000 events wrap the 64-slot ring many times over.
  const std::uint64_t n = allocations_in([] {
    for (int i = 0; i < 1000; ++i) record_event(i);
  });
  obs::FlightRecorder::set_enabled(false);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(recorder.recorded_events(), 1001u);
  recorder.reset();
}

// Three 0x93 arrivals in accumulator noise.
dw::CirEstimate three_arrival_cir() {
  dw::CirParams params;
  params.noise_sigma = 0.004;
  std::vector<dw::CirArrival> arrivals;
  for (const double tap : {80.0, 120.0, 200.0}) {
    dw::CirArrival a;
    a.time_into_window_s = tap * k::cir_ts_s;
    a.amplitude = {0.4, 0.0};
    arrivals.push_back(a);
  }
  Rng rng(3);
  return dw::synthesize_cir(arrivals, params, rng);
}

// SearchSubtractDetector::bank_correlate runs once in every detect() call.
// With one response requested the search loop stops before the subtract
// step, so the returned vector is detect()'s only allocation: anything
// bank_correlate allocated would add to it.
TEST(HotPathAllocTest, BankCorrelateAllocatesNothing) {
  const dw::CirEstimate cir = three_arrival_cir();
  for (const std::size_t shapes : {1u, 3u}) {
    ranging::DetectorConfig cfg;
    cfg.shape_registers = {0x93, 0xC8, 0xE6};
    cfg.shape_registers.resize(shapes);
    const ranging::SearchSubtractDetector det{cfg};
    ASSERT_EQ(det.detect(cir.taps, cir.ts_s, 1).size(), 1u);  // warm-up
    EXPECT_EQ(allocations_in([&] {
                for (int i = 0; i < 10; ++i)
                  (void)det.detect(cir.taps, cir.ts_s, 1);
              }),
              10u)
        << shapes << " template(s)";
  }
}

// The whole warm search loop: with three responses requested, detect()
// also runs peak pick, noise estimate, subtraction and the incremental
// update twice; its result is still its only allocation.
TEST(HotPathAllocTest, SearchLoopAllocatesNothing) {
  const dw::CirEstimate cir = three_arrival_cir();
  for (const std::size_t shapes : {1u, 4u}) {
    ranging::DetectorConfig cfg;
    cfg.shape_registers = {0x93, 0xB5, 0xC8, 0xE6};
    cfg.shape_registers.resize(shapes);
    const ranging::SearchSubtractDetector det{cfg};
    ASSERT_EQ(det.detect(cir.taps, cir.ts_s, 3).size(), 3u);  // warm-up
    EXPECT_EQ(allocations_in([&] {
                for (int i = 0; i < 10; ++i)
                  (void)det.detect(cir.taps, cir.ts_s, 3);
              }),
              10u)
        << shapes << " template(s)";
  }
}

// The Fig. 4 hallway and its initiator, and the 6 m responder.
channel::ChannelModel fig4_hallway() {
  return channel::ChannelModel(geom::Room::hallway(40.0, 2.4, 15.0), {});
}
constexpr geom::Vec2 kInitiator{2.0, 1.0};
constexpr geom::Vec2 kResponder6m{8.0, 1.0};

// ChannelModel::complete_diffuse, each call on its own link stream: the
// tail's walk and its sorted rays, and the taps growing to hold them. The
// walk's capacity hint covers the ~716 rays of a default tail.
TEST(HotPathAllocTest, CompleteDiffuseAllocatesThreePerCall) {
  constexpr std::uint64_t kPerCall = 3;
  const channel::ChannelModel model = fig4_hallway();
  Rng warm(derive_seed(404, 0));
  (void)model.realize(kInitiator, kResponder6m, warm);
  for (std::uint64_t stream = 1; stream <= 10; ++stream) {
    Rng rng(derive_seed(404, stream));
    channel::SpecularStage stage =
        model.realize_specular(kInitiator, kResponder6m, rng);
    channel::ChannelRealization ch;
    const std::uint64_t n = allocations_in(
        [&] { ch = model.complete_diffuse(std::move(stage), rng); });
    EXPECT_EQ(n, kPerCall) << "stream " << stream << ", " << ch.taps.size()
                           << " taps";
  }
}

// CirCapture::render of a concurrent round's three frames, each a full
// hallway channel with its own pulse shape: the taps are the only
// allocation; the pulse blocks and the noise blocks live on the stack.
TEST(HotPathAllocTest, CirRenderAllocatesOnlyItsTaps) {
  const channel::ChannelModel model = fig4_hallway();
  constexpr std::uint8_t kShapes[] = {0x93, 0xC8, 0xE6};
  const geom::Vec2 responders[] = {{5.0, 1.0}, kResponder6m, {12.0, 1.0}};
  std::vector<dw::CirArrival> arrivals;
  for (std::size_t f = 0; f < 3; ++f) {
    Rng rng(derive_seed(405, f));
    for (const channel::Tap& tap :
         model.realize(kInitiator, responders[f], rng).taps) {
      dw::CirArrival a;
      a.time_into_window_s = 100.0 * k::cir_ts_s + 2.0 * tap.delay_s;
      a.amplitude = tap.amplitude;
      a.tc_pgdelay = kShapes[f];
      arrivals.push_back(a);
    }
  }
  dw::CirParams params;
  params.noise_sigma = 0.004;
  Rng rng(406);
  const dw::CirCapture capture = dw::capture_cir(arrivals, params, rng);
  ASSERT_GT(capture.arrivals.size(), 1000u);
  (void)capture.render();  // warm-up: registers the render's counters
  EXPECT_EQ(allocations_in([&] {
              for (int i = 0; i < 10; ++i) (void)capture.render();
            }),
            10u);
}

// Medium::deliver runs once per receiver inside Medium::transmit. Every
// receiver of this Fig. 4 hallway is in range and detectable, so each
// transmit makes one deliver call per receiver and nothing else allocates.
// Per delivered frame today: the path list, the tap list, and the event
// closure (the AirFrame is too large for std::function's inline buffer).
// Lower the pin with each allocation removed; the goal is 0.
TEST(HotPathAllocTest, MediumDeliverAllocatesThreePerCall) {
  constexpr std::uint64_t kPerDeliver = 3;
  sim::Simulator simulator;
  sim::Medium medium(
      simulator,
      channel::ChannelModel(geom::Room::hallway(40.0, 2.4, 15.0), {}),
      sim::MediumParams{}, Rng(404));
  std::vector<std::unique_ptr<sim::Node>> nodes;
  const double xs[] = {2.0, 5.0, 8.0, 12.0};
  for (int id = 0; id < 4; ++id) {
    sim::NodeConfig nc;
    nc.id = id;
    nc.position = {xs[id], 1.0};
    const auto stream = static_cast<std::uint64_t>(id);
    nodes.push_back(std::make_unique<sim::Node>(
        simulator, medium, nc, Rng(derive_seed(404, stream))));
  }
  dw::MacFrame frame;
  frame.type = dw::FrameType::Init;
  const auto transmit = [&] {
    medium.transmit(0, frame, 0x93, simulator.now(), Seconds(1e-4),
                    Seconds(2e-4), 0.0);
  };
  for (int i = 0; i < 3; ++i) {  // warm-up
    transmit();
    simulator.run();
  }
  for (int i = 0; i < 10; ++i) {
    const sim::MediumStats before = medium.stats();
    const std::uint64_t n = allocations_in(transmit);
    const sim::MediumStats after = medium.stats();
    const std::uint64_t delivered =
        after.frames_delivered - before.frames_delivered;
    ASSERT_EQ(delivered, 3u);
    ASSERT_EQ(after.channels_realized - before.channels_realized, delivered);
    EXPECT_EQ(n, kPerDeliver * delivered) << "transmit " << i;
    simulator.run();
  }
}

// Room::obstacle_grid on the 210-room plan of the building benchmarks (782
// partition segments): the segment list, the cells' bounding boxes, the
// slot table, the cells and the index array, whatever the plan's size. A
// vector per occupied cell would add one allocation for each of its 611
// cells. There is nothing to warm up: the build keeps no state.
TEST(HotPathAllocTest, ObstacleGridBuildAllocatesAFixedCount) {
  constexpr std::uint64_t kPerBuild = 5;
  const sim::FloorPlan plan =
      sim::make_floor_plan(sim::plan_for_nodes(201, /*nodes_per_room=*/1.0));
  ASSERT_EQ(plan.room_count(), 210);
  ASSERT_EQ(plan.room.obstacles().size(), 782u);
  geom::UniformGrid grid;
  EXPECT_EQ(allocations_in([&] { grid = plan.room.obstacle_grid(); }),
            kPerBuild);
  EXPECT_GT(grid.cells().size(), 600u);
}

}  // namespace
}  // namespace uwb
