#include "geom/room.hpp"

#include "common/expects.hpp"

namespace uwb::geom {

Room Room::rectangular(double width_m, double height_m,
                       double reflection_loss_db) {
  UWB_EXPECTS(width_m > 0.0 && height_m > 0.0);
  UWB_EXPECTS(reflection_loss_db >= 0.0);
  Room room;
  const Vec2 bl{0.0, 0.0}, br{width_m, 0.0};
  const Vec2 tr{width_m, height_m}, tl{0.0, height_m};
  room.add_wall({{bl, br}, reflection_loss_db});
  room.add_wall({{br, tr}, reflection_loss_db});
  room.add_wall({{tr, tl}, reflection_loss_db});
  room.add_wall({{tl, bl}, reflection_loss_db});
  return room;
}

Room Room::hallway(double length_m, double width_m, double reflection_loss_db) {
  UWB_EXPECTS(length_m > 0.0 && width_m > 0.0);
  Room room;
  room.add_wall({{{0.0, 0.0}, {length_m, 0.0}}, reflection_loss_db});
  room.add_wall({{{0.0, width_m}, {length_m, width_m}}, reflection_loss_db});
  return room;
}

double Room::obstruction_loss_db(Vec2 a, Vec2 b) const {
  double loss = 0.0;
  const Segment ray{a, b};
  for (const Obstacle& o : obstacles_) {
    if (segments_intersect(ray, o.segment, /*strict=*/true))
      loss += o.transmission_loss_db;
  }
  return loss;
}

UniformGrid Room::obstacle_grid() const {
  std::vector<Segment> segments;
  segments.reserve(obstacles_.size());
  for (const Obstacle& o : obstacles_) segments.push_back(o.segment);
  return UniformGrid(segments);
}

double Room::obstruction_loss_db(Vec2 a, Vec2 b, const UniformGrid& grid,
                                 std::vector<std::int32_t>& candidates) const {
  if (obstacles_.empty()) return 0.0;
  UWB_EXPECTS(grid.point_count() == obstacles_.size());
  // A crossing obstacle shares a point with the ray, so the grid lists it;
  // the rest fail the test as they do in the full loop. Ascending indices
  // add the same losses in the same order.
  candidates.clear();
  const Segment ray{a, b};
  grid.along_segment(ray, candidates);
  double loss = 0.0;
  for (const std::int32_t i : candidates) {
    const Obstacle& o = obstacles_[static_cast<std::size_t>(i)];
    if (segments_intersect(ray, o.segment, /*strict=*/true))
      loss += o.transmission_loss_db;
  }
  return loss;
}

}  // namespace uwb::geom
