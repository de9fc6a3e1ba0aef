// Floor-plan model: reflecting walls plus attenuating obstacles.
//
// Walls produce specular multipath (paper Fig. 1a); obstacles attenuate rays
// that pass through them (used for the NLOS extension study).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/grid.hpp"
#include "geom/vec2.hpp"

namespace uwb::geom {

/// A reflecting wall segment.
struct Wall {
  Segment segment;
  /// Power reflection loss in dB (>= 0); typical plasterboard ~ 4-8 dB.
  double reflection_loss_db = 6.0;
  std::string name;
};

/// An obstacle that attenuates rays crossing it (e.g., a person, cabinet).
struct Obstacle {
  Segment segment;
  /// Power loss in dB added to any ray crossing the obstacle.
  double transmission_loss_db = 10.0;
  std::string name;
};

/// A 2-D environment: a set of walls and obstacles.
class Room {
 public:
  Room() = default;

  /// Axis-aligned rectangular room [0,width] x [0,height] with four walls of
  /// equal reflection loss (the paper's Fig. 1a scenario).
  static Room rectangular(double width_m, double height_m,
                          double reflection_loss_db = 6.0);

  /// A long corridor: like rectangular() but with the two long side walls
  /// only (open ends), matching the paper's hallway experiments.
  static Room hallway(double length_m, double width_m,
                      double reflection_loss_db = 5.0);

  void add_wall(Wall w) { walls_.push_back(std::move(w)); }
  void add_obstacle(Obstacle o) { obstacles_.push_back(std::move(o)); }

  const std::vector<Wall>& walls() const { return walls_; }
  const std::vector<Obstacle>& obstacles() const { return obstacles_; }

  /// Total obstacle transmission loss (dB) along the open segment from a to
  /// b; 0 when the path is clear. Tests every obstacle: the reference the
  /// indexed overload below is held to.
  double obstruction_loss_db(Vec2 a, Vec2 b) const;

  /// The obstacles bucketed on a segment grid (UniformGrid's segment
  /// constructor), for the indexed obstruction_loss_db.
  UniformGrid obstacle_grid() const;

  /// obstruction_loss_db(a, b), bit for bit, testing only the obstacles
  /// `grid` (this room's obstacle_grid()) lists along the segment and
  /// summing their losses in ascending obstacle index, the full loop's
  /// order. `candidates` is scratch space; reserve grid.entry_count() once
  /// and no call allocates. With no obstacles a call is one size check.
  double obstruction_loss_db(Vec2 a, Vec2 b, const UniformGrid& grid,
                             std::vector<std::int32_t>& candidates) const;

 private:
  std::vector<Wall> walls_;
  std::vector<Obstacle> obstacles_;
};

}  // namespace uwb::geom
