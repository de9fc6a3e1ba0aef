// Multi-room floor-plan generator for building-scale scenarios
// (DESIGN.md Sect. 13).
//
// Produces a rooms_x x rooms_y grid of rooms: four reflecting outer walls
// and interior partitions modelled as attenuating Obstacles with a centered
// doorway gap per room edge. Partitions are Obstacles rather than Walls on
// purpose — the image-source solver is O(walls^order) per (tx, rx) pair,
// so hundreds of reflecting interior segments would multiply every solve
// while contributing little beyond attenuation; as obstacles each leg pays
// one obstruction query over the channel model's obstacle grid. Node
// placement is deterministic from a seed via derive_seed, round-robining
// rooms so density stays uniform.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/room.hpp"
#include "geom/vec2.hpp"

namespace uwb::sim {

/// Room width and height [m].
inline constexpr double kRoomWM = 6.0;
inline constexpr double kRoomHM = 5.0;
/// Nodes are placed at least this far from any room boundary [m].
inline constexpr double kPlacementMarginM = 0.5;

struct FloorPlanConfig {
  int rooms_x = 1;
  int rooms_y = 1;
};

/// A generated building: the Room (walls + partition obstacles) plus the
/// grid metadata needed to address individual rooms.
struct FloorPlan {
  FloorPlanConfig config;
  geom::Room room;

  double width_m() const { return kRoomWM * config.rooms_x; }
  double height_m() const { return kRoomHM * config.rooms_y; }
  geom::Vec2 center() const { return {width_m() / 2.0, height_m() / 2.0}; }
  int room_count() const { return config.rooms_x * config.rooms_y; }
};

/// Build the Room geometry for `config`.
FloorPlan make_floor_plan(const FloorPlanConfig& config);

/// Near-square grid sized so `node_count` nodes average `nodes_per_room`
/// per room.
FloorPlanConfig plan_for_nodes(int node_count, double nodes_per_room = 2.0);

/// Deterministic node placement: round-robin over rooms, uniform inside
/// each room's margin-inset interior. Same (plan, count, seed) -> same
/// positions, bit-identical.
std::vector<geom::Vec2> place_nodes(const FloorPlan& plan, int count,
                                    std::uint64_t seed);

}  // namespace uwb::sim
