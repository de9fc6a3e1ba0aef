// Image-source computation of specular multipath (paper Fig. 1a).
//
// For each wall the transmitter is mirrored across the wall line; if the
// straight path from the image to the receiver crosses the wall segment, a
// first-order specular reflection exists with path length |image - rx|.
// Second-order paths mirror the image across a second wall.
//
// Every solve is computed fresh. The channel model solves each link with
// its room's obstacle grid (Room::obstacle_grid), built once per model, so
// a leg tests only the obstacles in the cells it crosses.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/grid.hpp"
#include "geom/room.hpp"

namespace uwb::geom {

/// One specular propagation path between a TX and an RX.
struct SpecularPath {
  /// Total geometric path length [m].
  double length_m = 0.0;
  /// Sum of the reflection losses of all bounces [dB] (0 for the LOS path).
  double reflection_loss_db = 0.0;
  /// Obstacle transmission loss accumulated along the path [dB].
  double obstruction_loss_db = 0.0;
  /// Number of wall bounces (0 = line of sight).
  int order = 0;
  /// Indices (into Room::walls()) of the bounce walls, in order.
  std::vector<int> wall_indices;
};

/// LOS path plus specular reflections up to `max_order` (0, 1 or 2).
/// The LOS path is always first in the result. Obstruction losses come from
/// Room::obstruction_loss_db's full loop over every obstacle.
std::vector<SpecularPath> compute_paths(const Room& room, Vec2 tx, Vec2 rx,
                                        int max_order = 1);

/// compute_paths(room, tx, rx, max_order), bit for bit, with each leg's
/// obstruction loss from the indexed query over `obstacle_grid` (the room's
/// Room::obstacle_grid()).
std::vector<SpecularPath> compute_paths(const Room& room,
                                        const UniformGrid& obstacle_grid,
                                        Vec2 tx, Vec2 rx, int max_order = 1);

// Forwards kept only because perfbench/ names them and a change that claims
// a gain may not edit the benchmark; the next benchmark revision deletes
// them (ROADMAP item 8). There is no path cache: the "cached" solve is a
// fresh full-loop solve and the stats read zero.

/// compute_paths(room, tx, rx, max_order).
inline std::vector<SpecularPath> compute_paths_cached(const Room& room,
                                                      Vec2 tx, Vec2 rx,
                                                      int max_order = 1) {
  return compute_paths(room, tx, rx, max_order);
}

/// Zero hits, misses and entries.
struct PathCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;
};
inline PathCacheStats path_cache_stats() { return {}; }

}  // namespace uwb::geom
