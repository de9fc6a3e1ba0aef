#include "sim/floorplan.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"
#include "common/random.hpp"

namespace uwb::sim {

namespace {

/// Stream index separating node placement from every other consumer of a
/// scenario seed.
constexpr std::uint64_t kPlacementSeedStream = 0xF100A901;

/// Doorway gap in every interior partition segment, centered per room
/// edge [m]. Smaller than both room sides.
constexpr double kDoorwayM = 1.0;
/// Reflection loss of the four outer walls [dB].
constexpr double kOuterReflectionLossDb = 8.0;
/// Transmission loss through an interior partition [dB].
constexpr double kPartitionLossDb = 6.0;

/// Add one partition line as Obstacle segments, leaving a centered doorway
/// gap in each per-room span. `fixed` is the coordinate along the partition
/// normal; spans run along the other axis in steps of `span_m`.
void add_partition(geom::Room& room, bool vertical, double fixed, int spans,
                   double span_m, double doorway_m, double loss_db) {
  const double solid = (span_m - doorway_m) / 2.0;
  for (int i = 0; i < spans; ++i) {
    const double lo = span_m * i;
    const auto seg = [&](double a, double b) {
      geom::Obstacle o;
      o.segment = vertical ? geom::Segment{{fixed, a}, {fixed, b}}
                           : geom::Segment{{a, fixed}, {b, fixed}};
      o.transmission_loss_db = loss_db;
      room.add_obstacle(o);
    };
    seg(lo, lo + solid);
    seg(lo + solid + doorway_m, lo + span_m);
  }
}

}  // namespace

FloorPlan make_floor_plan(const FloorPlanConfig& config) {
  UWB_EXPECTS(config.rooms_x >= 1 && config.rooms_y >= 1);

  FloorPlan plan;
  plan.config = config;
  plan.room = geom::Room::rectangular(kRoomWM * config.rooms_x,
                                      kRoomHM * config.rooms_y,
                                      kOuterReflectionLossDb);
  // Two segments per room edge of every interior partition line.
  const int rx = config.rooms_x;
  const int ry = config.rooms_y;
  plan.room.reserve_obstacles(
      static_cast<std::size_t>(2 * ((rx - 1) * ry + (ry - 1) * rx)));
  for (int ix = 1; ix < rx; ++ix) {
    add_partition(plan.room, /*vertical=*/true, kRoomWM * ix, ry, kRoomHM,
                  kDoorwayM, kPartitionLossDb);
  }
  for (int iy = 1; iy < ry; ++iy) {
    add_partition(plan.room, /*vertical=*/false, kRoomHM * iy, rx, kRoomWM,
                  kDoorwayM, kPartitionLossDb);
  }
  return plan;
}

FloorPlanConfig plan_for_nodes(int node_count, double nodes_per_room) {
  UWB_EXPECTS(node_count >= 1);
  UWB_EXPECTS(nodes_per_room > 0.0);
  const int rooms = std::max(
      1, static_cast<int>(std::ceil(node_count / nodes_per_room)));
  FloorPlanConfig config;
  config.rooms_x =
      std::max(1, static_cast<int>(std::ceil(std::sqrt(rooms))));
  config.rooms_y = (rooms + config.rooms_x - 1) / config.rooms_x;
  return config;
}

std::vector<geom::Vec2> place_nodes(const FloorPlan& plan, int count,
                                    std::uint64_t seed) {
  UWB_EXPECTS(count >= 0);
  Rng rng(derive_seed(seed, kPlacementSeedStream));
  const FloorPlanConfig& c = plan.config;
  std::vector<geom::Vec2> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int room_index = i % plan.room_count();
    const int ix = room_index % c.rooms_x;
    const int iy = room_index / c.rooms_x;
    const double x = rng.uniform(kRoomWM * ix + kPlacementMarginM,
                                 kRoomWM * (ix + 1) - kPlacementMarginM);
    const double y = rng.uniform(kRoomHM * iy + kPlacementMarginM,
                                 kRoomHM * (iy + 1) - kPlacementMarginM);
    out.push_back({x, y});
  }
  return out;
}

}  // namespace uwb::sim
