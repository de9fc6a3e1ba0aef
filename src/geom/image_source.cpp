#include "geom/image_source.hpp"

#include <cstdint>

#include "common/expects.hpp"

namespace uwb::geom {

namespace {

// Intersection of segment (from, to) with the wall segment; true if the
// crossing lies strictly inside both the wall segment and the (from, to)
// span. Sets `point`.
bool reflection_point(const Segment& wall, Vec2 from, Vec2 to, Vec2& point) {
  Vec2 p;
  if (!line_intersection(Segment{from, to}, wall, p)) return false;
  const double t_wall = project_t(wall, p);
  if (t_wall < 1e-9 || t_wall > 1.0 - 1e-9) return false;
  const Segment ray{from, to};
  const double t_ray = project_t(ray, p);
  if (t_ray < 1e-9 || t_ray > 1.0 - 1e-9) return false;
  return true && (point = p, true);
}

// Signed side of point p relative to the wall line (sign of the cross
// product); 0 means on the line.
double side_of(const Segment& wall, Vec2 p) {
  return cross(wall.b - wall.a, p - wall.a);
}

// The solve, with each leg's obstruction loss from `obstruction_loss_db`.
template <class ObstructionLoss>
std::vector<SpecularPath> solve(const Room& room, Vec2 tx, Vec2 rx,
                                int max_order,
                                ObstructionLoss&& obstruction_loss_db) {
  UWB_EXPECTS(max_order >= 0 && max_order <= 2);
  std::vector<SpecularPath> paths;
  // LOS + one first-order path per wall + one second-order path per
  // ordered wall pair bounds the growth exactly.
  const std::size_t n_walls = room.walls().size();
  paths.reserve(max_order == 0   ? 1
                : max_order == 1 ? 1 + n_walls
                                 : 1 + n_walls + n_walls * n_walls);

  SpecularPath los;
  los.length_m = distance(tx, rx);
  los.obstruction_loss_db = obstruction_loss_db(tx, rx);
  paths.push_back(los);
  if (max_order == 0) return paths;

  const auto& walls = room.walls();
  for (std::size_t i = 0; i < walls.size(); ++i) {
    const Segment& w = walls[i].segment;
    // TX and RX must be on the same side for a specular bounce to exist.
    if (side_of(w, tx) * side_of(w, rx) <= 0.0) continue;
    const Vec2 image = mirror_across(w, tx);
    Vec2 p;
    if (!reflection_point(w, image, rx, p)) continue;
    SpecularPath sp;
    sp.length_m = distance(image, rx);
    sp.reflection_loss_db = walls[i].reflection_loss_db;
    sp.obstruction_loss_db =
        obstruction_loss_db(tx, p) + obstruction_loss_db(p, rx);
    sp.order = 1;
    paths.push_back(sp);
  }
  if (max_order == 1) return paths;

  for (std::size_t i = 0; i < walls.size(); ++i) {
    const Segment& wi = walls[i].segment;
    if (side_of(wi, tx) == 0.0) continue;
    const Vec2 image1 = mirror_across(wi, tx);
    for (std::size_t j = 0; j < walls.size(); ++j) {
      if (j == i) continue;
      const Segment& wj = walls[j].segment;
      const Vec2 image2 = mirror_across(wj, image1);
      Vec2 pj;
      if (!reflection_point(wj, image2, rx, pj)) continue;
      Vec2 pi;
      if (!reflection_point(wi, image1, pj, pi)) continue;
      // Both bounce points lie inside their wall segments and legs; no
      // check that a leg avoids the other walls. That holds in a convex
      // room, the case this solver assumes.
      SpecularPath sp;
      sp.length_m = distance(image2, rx);
      sp.reflection_loss_db =
          walls[i].reflection_loss_db + walls[j].reflection_loss_db;
      sp.obstruction_loss_db = obstruction_loss_db(tx, pi) +
                               obstruction_loss_db(pi, pj) +
                               obstruction_loss_db(pj, rx);
      sp.order = 2;
      paths.push_back(sp);
    }
  }
  return paths;
}

}  // namespace

std::vector<SpecularPath> compute_paths(const Room& room, Vec2 tx, Vec2 rx,
                                        int max_order) {
  return solve(room, tx, rx, max_order, [&room](Vec2 a, Vec2 b) {
    return room.obstruction_loss_db(a, b);
  });
}

std::vector<SpecularPath> compute_paths(const Room& room,
                                        const UniformGrid& obstacle_grid,
                                        Vec2 tx, Vec2 rx, int max_order) {
  std::vector<std::int32_t> candidates;
  candidates.reserve(obstacle_grid.entry_count());
  return solve(room, tx, rx, max_order,
               [&room, &obstacle_grid, &candidates](Vec2 a, Vec2 b) {
                 return room.obstruction_loss_db(a, b, obstacle_grid,
                                                 candidates);
               });
}

}  // namespace uwb::geom
