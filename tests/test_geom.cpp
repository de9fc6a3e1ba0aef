// Unit tests: 2-D geometry, rooms, the image-source method (Fig. 1a), and
// the obstacle grid's indexed obstruction query against the full loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "common/expects.hpp"
#include "common/random.hpp"
#include "geom/grid.hpp"
#include "geom/image_source.hpp"
#include "geom/room.hpp"
#include "geom/vec2.hpp"
#include "sim/floorplan.hpp"

namespace uwb::geom {
namespace {

TEST(Vec2Test, Arithmetic) {
  const Vec2 a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ((a + b), (Vec2{4.0, 1.0}));
  EXPECT_EQ((a - b), (Vec2{-2.0, 3.0}));
  EXPECT_EQ((a * 2.0), (Vec2{2.0, 4.0}));
  EXPECT_EQ((a / 2.0), (Vec2{0.5, 1.0}));
  EXPECT_DOUBLE_EQ(dot(a, b), 1.0);
  EXPECT_DOUBLE_EQ(cross(a, b), -7.0);
}

TEST(Vec2Test, NormAndDistance) {
  EXPECT_DOUBLE_EQ(norm(Vec2{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(distance(Vec2{1.0, 1.0}, Vec2{4.0, 5.0}), 5.0);
  const Vec2 unit = normalized(Vec2{3.0, 4.0});
  EXPECT_NEAR(norm(unit), 1.0, 1e-12);
  EXPECT_EQ(normalized(Vec2{0.0, 0.0}), (Vec2{0.0, 0.0}));
}

TEST(SegmentTest, LengthAndMidpoint) {
  const Segment s{{0.0, 0.0}, {4.0, 0.0}};
  EXPECT_DOUBLE_EQ(s.length(), 4.0);
  EXPECT_EQ(s.midpoint(), (Vec2{2.0, 0.0}));
}

TEST(SegmentTest, ProperIntersection) {
  const Segment a{{0.0, 0.0}, {2.0, 2.0}};
  const Segment b{{0.0, 2.0}, {2.0, 0.0}};
  EXPECT_TRUE(segments_intersect(a, b));
  EXPECT_TRUE(segments_intersect(a, b, /*strict=*/true));
}

TEST(SegmentTest, DisjointSegments) {
  const Segment a{{0.0, 0.0}, {1.0, 0.0}};
  const Segment b{{0.0, 1.0}, {1.0, 1.0}};
  EXPECT_FALSE(segments_intersect(a, b));
}

TEST(SegmentTest, TouchingEndpointsStrictVsLoose) {
  const Segment a{{0.0, 0.0}, {1.0, 1.0}};
  const Segment b{{1.0, 1.0}, {2.0, 0.0}};
  EXPECT_TRUE(segments_intersect(a, b, /*strict=*/false));
  EXPECT_FALSE(segments_intersect(a, b, /*strict=*/true));
}

TEST(SegmentTest, CollinearOverlap) {
  const Segment a{{0.0, 0.0}, {2.0, 0.0}};
  const Segment b{{1.0, 0.0}, {3.0, 0.0}};
  EXPECT_TRUE(segments_intersect(a, b));
  EXPECT_FALSE(segments_intersect(a, b, /*strict=*/true));
}

TEST(SegmentTest, LineIntersection) {
  Vec2 p;
  ASSERT_TRUE(line_intersection(Segment{{0.0, 0.0}, {1.0, 0.0}},
                                Segment{{5.0, -1.0}, {5.0, 1.0}}, p));
  EXPECT_NEAR(p.x, 5.0, 1e-12);
  EXPECT_NEAR(p.y, 0.0, 1e-12);
  // Parallel lines: no intersection.
  EXPECT_FALSE(line_intersection(Segment{{0.0, 0.0}, {1.0, 0.0}},
                                 Segment{{0.0, 1.0}, {1.0, 1.0}}, p));
}

TEST(SegmentTest, MirrorAcross) {
  const Segment wall{{0.0, 0.0}, {10.0, 0.0}};  // the x-axis
  const Vec2 img = mirror_across(wall, {3.0, 2.0});
  EXPECT_NEAR(img.x, 3.0, 1e-12);
  EXPECT_NEAR(img.y, -2.0, 1e-12);
  // Mirroring twice returns the original point.
  const Vec2 back = mirror_across(wall, img);
  EXPECT_NEAR(back.y, 2.0, 1e-12);
}

TEST(SegmentTest, ProjectT) {
  const Segment s{{0.0, 0.0}, {10.0, 0.0}};
  EXPECT_DOUBLE_EQ(project_t(s, {2.5, 7.0}), 0.25);
  EXPECT_DOUBLE_EQ(project_t(s, {-5.0, 0.0}), -0.5);
  EXPECT_THROW(project_t(Segment{{1.0, 1.0}, {1.0, 1.0}}, {0.0, 0.0}),
               PreconditionError);
}

TEST(RoomTest, RectangularHasFourWalls) {
  const Room room = Room::rectangular(8.0, 5.0, 7.0);
  ASSERT_EQ(room.walls().size(), 4u);
  for (const Wall& w : room.walls())
    EXPECT_DOUBLE_EQ(w.reflection_loss_db, 7.0);
  EXPECT_THROW(Room::rectangular(0.0, 5.0), PreconditionError);
}

TEST(RoomTest, HallwayHasTwoWalls) {
  const Room room = Room::hallway(30.0, 2.4);
  EXPECT_EQ(room.walls().size(), 2u);
}

TEST(RoomTest, ObstructionLossAccumulates) {
  Room room = Room::rectangular(10.0, 10.0);
  room.add_obstacle({{{5.0, 0.0}, {5.0, 10.0}}, 12.0, "divider"});
  room.add_obstacle({{{7.0, 0.0}, {7.0, 10.0}}, 5.0, "shelf"});
  EXPECT_DOUBLE_EQ(room.obstruction_loss_db({1.0, 5.0}, {9.0, 5.0}), 17.0);
  EXPECT_DOUBLE_EQ(room.obstruction_loss_db({1.0, 5.0}, {4.0, 5.0}), 0.0);
  // A ray parallel to (not crossing) the obstacle is free.
  EXPECT_DOUBLE_EQ(room.obstruction_loss_db({1.0, 1.0}, {4.0, 1.0}), 0.0);
}

TEST(ImageSourceTest, LosAlwaysFirst) {
  const Room room = Room::rectangular(10.0, 6.0);
  const auto paths = compute_paths(room, {2.0, 3.0}, {8.0, 3.0}, 1);
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front().order, 0);
  EXPECT_DOUBLE_EQ(paths.front().length_m, 6.0);
  EXPECT_DOUBLE_EQ(paths.front().reflection_loss_db, 0.0);
}

TEST(ImageSourceTest, RectangularRoomGivesFourFirstOrderPaths) {
  // Interior TX/RX in a rectangle: one specular bounce per wall (Fig. 1a).
  const Room room = Room::rectangular(10.0, 6.0);
  const auto paths = compute_paths(room, {2.0, 3.0}, {8.0, 3.0}, 1);
  int first_order = 0;
  for (const auto& p : paths)
    if (p.order == 1) ++first_order;
  EXPECT_EQ(first_order, 4);
}

TEST(ImageSourceTest, KnownReflectionLength) {
  // TX (2,3) -> floor (y=0) -> RX (8,3): image at (2,-3), length
  // |(8,3)-(2,-3)| = sqrt(36+36).
  const Room room = Room::rectangular(10.0, 6.0);
  const auto paths = compute_paths(room, {2.0, 3.0}, {8.0, 3.0}, 1);
  const double expected = std::sqrt(72.0);
  bool found = false;
  for (const auto& p : paths)
    if (p.order == 1 && std::abs(p.length_m - expected) < 1e-9) found = true;
  EXPECT_TRUE(found);
}

TEST(ImageSourceTest, ReflectionAlwaysLongerThanLos) {
  const Room room = Room::rectangular(12.0, 7.0);
  const auto paths = compute_paths(room, {1.5, 2.0}, {10.0, 5.5}, 2);
  const double los = paths.front().length_m;
  for (const auto& p : paths) {
    if (p.order >= 1) {
      EXPECT_GT(p.length_m, los);
    }
  }
}

TEST(ImageSourceTest, SecondOrderPathsExist) {
  const Room room = Room::rectangular(10.0, 6.0);
  const auto paths = compute_paths(room, {2.0, 3.0}, {8.0, 3.0}, 2);
  int second = 0;
  for (const auto& p : paths)
    if (p.order == 2) {
      ++second;
      EXPECT_EQ(p.wall_indices.size(), 2u);
      // Two bounces accumulate two reflection losses.
      EXPECT_DOUBLE_EQ(p.reflection_loss_db, 12.0);
    }
  EXPECT_GT(second, 0);
}

TEST(ImageSourceTest, MaxOrderZeroIsLosOnly) {
  const Room room = Room::rectangular(10.0, 6.0);
  const auto paths = compute_paths(room, {2.0, 3.0}, {8.0, 3.0}, 0);
  EXPECT_EQ(paths.size(), 1u);
  EXPECT_THROW(compute_paths(room, {1.0, 1.0}, {2.0, 2.0}, 3), PreconditionError);
}

TEST(ImageSourceTest, HallwayGivesTwoSideReflections) {
  const Room room = Room::hallway(40.0, 2.4);
  const auto paths = compute_paths(room, {2.0, 1.2}, {12.0, 1.2}, 1);
  int first_order = 0;
  for (const auto& p : paths)
    if (p.order == 1) ++first_order;
  EXPECT_EQ(first_order, 2);
}

TEST(ImageSourceTest, ObstructedLosCarriesLoss) {
  Room room = Room::rectangular(10.0, 6.0);
  room.add_obstacle({{{5.0, 0.0}, {5.0, 6.0}}, 15.0, "wall"});
  const auto paths = compute_paths(room, {2.0, 3.0}, {8.0, 3.0}, 0);
  EXPECT_DOUBLE_EQ(paths.front().obstruction_loss_db, 15.0);
}

TEST(ImageSourceTest, EmptyRoomStillHasLos) {
  const Room room;  // no walls at all
  const auto paths = compute_paths(room, {0.0, 0.0}, {3.0, 4.0}, 1);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_DOUBLE_EQ(paths.front().length_m, 5.0);
}

// --- obstacle grid: the indexed obstruction query ---------------------------
//
// Room::obstruction_loss_db(a, b, grid, candidates) must return the full
// loop's loss bit for bit: every crossing obstacle listed, the losses added
// in ascending obstacle index. The random sets carry distinct non-dyadic
// losses, so adding them in any other order changes the last bits.

std::string describe(const Segment& ray) {
  std::ostringstream os;
  os << std::setprecision(17) << "ray (" << ray.a.x << ", " << ray.a.y
     << ") -> (" << ray.b.x << ", " << ray.b.y << ")";
  return os.str();
}

/// Every ray's indexed loss against the full loop with an exact EXPECT_EQ
/// (the first few mismatches are printed, all are counted). Returns how many
/// rays are obstructed.
int expect_indexed_matches_full(const Room& room,
                                const std::vector<Segment>& rays) {
  const UniformGrid grid = room.obstacle_grid();
  std::vector<std::int32_t> candidates;
  candidates.reserve(grid.entry_count());
  const std::int32_t* const storage = candidates.data();
  int obstructed = 0;
  int mismatches = 0;
  for (const Segment& ray : rays) {
    const double full = room.obstruction_loss_db(ray.a, ray.b);
    const double indexed =
        room.obstruction_loss_db(ray.a, ray.b, grid, candidates);
    if (full != 0.0) ++obstructed;
    if (indexed != full && ++mismatches > 3) continue;
    EXPECT_EQ(indexed, full) << describe(ray) << std::setprecision(17)
                             << ": indexed " << indexed << ", full " << full;
  }
  EXPECT_EQ(mismatches, 0) << "of " << rays.size() << " rays";
  // The reserved scratch never grew: no query allocated.
  EXPECT_EQ(candidates.data(), storage);
  return obstructed;
}

Vec2 random_point(Rng& rng, Vec2 lo, Vec2 hi) {
  return {rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y)};
}

/// `count` obstacles in the square [origin, origin + size]: half of them
/// axis-aligned like partitions, the rest at any angle; obstacle i loses
/// 1 + 0.1 i dB plus a random fraction, so no two losses are equal.
Room random_obstacles(Rng& rng, int count, Vec2 origin, double size) {
  Room room;
  for (int i = 0; i < count; ++i) {
    const Vec2 a = random_point(rng, origin, origin + Vec2{size, size});
    const double length = rng.uniform(0.2, 6.0);
    const double partition = i % 4 == 0 ? 0.0 : 0.5 * std::numbers::pi;
    const double angle =
        i % 2 == 0 ? partition : rng.uniform(0.0, 2.0 * std::numbers::pi);
    const Vec2 b = a + Vec2{length * std::cos(angle), length * std::sin(angle)};
    room.add_obstacle(
        {{a, b}, 1.0 + 0.1 * i + rng.uniform(0.0, 0.1), "o"});
  }
  return room;
}

/// Rays that graze the obstacles: along each one (collinear, past both
/// ends), ending exactly on it (midpoint and an interior point), through
/// each endpoint, and crossing it at the midpoint.
std::vector<Segment> grazing_rays(Rng& rng, const Room& room) {
  std::vector<Segment> rays;
  for (const Obstacle& o : room.obstacles()) {
    const Segment& s = o.segment;
    const Vec2 d = s.b - s.a;
    const Vec2 n{-d.y, d.x};
    const Vec2 mid = s.midpoint();
    const Vec2 inner = s.a + d * rng.uniform(0.1, 0.9);
    rays.push_back({s.a - d * 0.5, s.b + d * 0.5});
    rays.push_back({s.a + d * 0.25, s.b - d * 0.25});
    rays.push_back({mid + n, mid});
    rays.push_back({inner - n * 0.3, inner});
    rays.push_back({s.a - n, s.a + n});
    rays.push_back({s.b + n * 0.7 + d * 0.1, s.b - n * 0.7 - d * 0.1});
    rays.push_back({mid - n + d * 0.2, mid + n - d * 0.2});
  }
  return rays;
}

std::vector<Segment> random_rays(Rng& rng, int count, Vec2 lo, Vec2 hi) {
  std::vector<Segment> rays;
  for (int i = 0; i < count; ++i)
    rays.push_back({random_point(rng, lo, hi), random_point(rng, lo, hi)});
  return rays;
}

TEST(ObstacleGridTest, SegmentCellSideFollowsTheSet) {
  // sqrt(area / count): an 8 x 2 box over 4 segments.
  EXPECT_DOUBLE_EQ(UniformGrid(std::vector<Segment>{{{0, 0}, {8, 0}},
                                                    {{0, 2}, {8, 2}},
                                                    {{1, 0}, {1, 2}},
                                                    {{7, 0}, {7, 2}}})
                       .cell_size_m(),
                   2.0);
  // Collinear: the longer side / count.
  EXPECT_DOUBLE_EQ(UniformGrid(std::vector<Segment>{{{0, 0}, {4, 0}},
                                                    {{6, 0}, {10, 0}}})
                       .cell_size_m(),
                   5.0);
  // One point, or nothing: 1 m, nothing bucketed for the empty set.
  EXPECT_DOUBLE_EQ(
      UniformGrid(std::vector<Segment>{{{3, 3}, {3, 3}}}).cell_size_m(), 1.0);
  const UniformGrid empty{std::vector<Segment>{}};
  EXPECT_DOUBLE_EQ(empty.cell_size_m(), 1.0);
  EXPECT_TRUE(empty.cells().empty());
  EXPECT_EQ(empty.entry_count(), 0u);
}

TEST(ObstacleGridTest, AlongSegmentIsAscendingUniqueAndCoversEveryTouch) {
  Rng rng(11);
  const Room room = random_obstacles(rng, 120, {-10.0, 5.0}, 30.0);
  std::vector<Segment> segments;
  for (const Obstacle& o : room.obstacles()) segments.push_back(o.segment);
  const UniformGrid grid(segments);
  std::vector<std::int32_t> out;
  for (const Segment& ray :
       random_rays(rng, 2000, {-15.0, 0.0}, {25.0, 40.0})) {
    out.clear();
    grid.along_segment(ray, out);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    EXPECT_EQ(std::adjacent_find(out.begin(), out.end()), out.end());
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (segments_intersect(ray, segments[i], /*strict=*/false)) {
        EXPECT_TRUE(std::binary_search(out.begin(), out.end(),
                                       static_cast<std::int32_t>(i)))
            << describe(ray) << " misses segment " << i;
      }
    }
  }
}

TEST(ObstacleGridTest, FloorPlansMatchFullLoop) {
  for (const int nodes : {2, 50, 201, 501}) {
    SCOPED_TRACE(nodes);
    const sim::FloorPlan plan =
        sim::make_floor_plan(sim::plan_for_nodes(nodes, 1.0));
    Rng rng(static_cast<std::uint64_t>(nodes));
    const auto positions =
        sim::place_nodes(plan, nodes, static_cast<std::uint64_t>(nodes));
    std::vector<Segment> rays = grazing_rays(rng, plan.room);
    // Node-to-node links, as the medium realizes them.
    for (std::size_t i = 0; i < positions.size(); ++i)
      for (std::size_t k = 1; k <= 8; ++k)
        rays.push_back(
            {positions[i], positions[(i + 37 * k) % positions.size()]});
    const Vec2 far{plan.width_m() + 20.0, plan.height_m() + 20.0};
    for (const Segment& r :
         random_rays(rng, 2000, Vec2{-20.0, -20.0}, far))
      rays.push_back(r);
    const int obstructed = expect_indexed_matches_full(plan.room, rays);
    if (nodes > 2) {
      EXPECT_GT(obstructed, 0);
    }
  }
}

TEST(ObstacleGridTest, RandomObstaclesMatchFullLoop) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const Room room = random_obstacles(rng, 300, {0.0, 0.0}, 40.0);
    std::vector<Segment> rays = grazing_rays(rng, room);
    for (const Segment& r : random_rays(rng, 10000, {-5.0, -5.0}, {45.0, 45.0}))
      rays.push_back(r);
    const int obstructed = expect_indexed_matches_full(room, rays);
    EXPECT_GT(obstructed, static_cast<int>(rays.size()) / 2);
  }
}

/// Two anchor obstacles pin the bounding box to [origin, origin + size]^2,
/// then `inner` follows. With the count fixed, so is the obstacle grid's
/// cell side, whatever the inner obstacles are (inside the box).
Room anchored_room(Vec2 origin, double size,
                   const std::vector<Obstacle>& inner) {
  Room room;
  room.add_obstacle({{origin, origin + Vec2{0.5, 0.0}}, 2.3, "anchor"});
  room.add_obstacle(
      {{origin + Vec2{size - 0.5, size}, origin + Vec2{size, size}},
       3.7,
       "anchor"});
  for (const Obstacle& o : inner) room.add_obstacle(o);
  return room;
}

/// A point obstacle inside the anchored box: crossed by nothing.
Obstacle placeholder(Vec2 origin) {
  return {{origin + Vec2{1.0, 1.0}, origin + Vec2{1.0, 1.0}}, 1.0, "point"};
}

/// Cell side of every anchored_room with `count` obstacles in all.
double anchored_side(Vec2 origin, double size, int count) {
  return anchored_room(origin, size,
                       std::vector<Obstacle>(
                           static_cast<std::size_t>(count - 2),
                           placeholder(origin)))
      .obstacle_grid()
      .cell_size_m();
}

TEST(ObstacleGridTest, SnappedToCellBoundariesMatchFullLoop) {
  // Every endpoint sits on a multiple of the grid's own cell_size_m(), so
  // obstacles lie along cell lines and rays cross, touch and run along
  // them through cell corners. Far from the origin the coordinates carry
  // the most roundoff.
  for (const Vec2 origin : {Vec2{0.0, 0.0}, Vec2{20000.0, -15000.0}}) {
    SCOPED_TRACE(origin.x);
    const double size = 40.0;
    const int count = 200;
    const double side = anchored_side(origin, size, count);
    const auto i0 = static_cast<std::int64_t>(std::ceil(origin.x / side));
    const auto i1 =
        static_cast<std::int64_t>(std::floor((origin.x + size) / side));
    const auto j0 = static_cast<std::int64_t>(std::ceil(origin.y / side));
    const auto j1 =
        static_cast<std::int64_t>(std::floor((origin.y + size) / side));
    Rng rng(7);
    const auto corner = [&](std::int64_t i, std::int64_t j) {
      return Vec2{static_cast<double>(std::clamp(i, i0, i1)) * side,
                  static_cast<double>(std::clamp(j, j0, j1)) * side};
    };
    const auto random_corner = [&] {
      return corner(rng.uniform_int(i0, i1), rng.uniform_int(j0, j1));
    };
    std::vector<Obstacle> inner;
    for (int k = 0; k < count - 2; ++k) {
      const std::int64_t i = rng.uniform_int(i0, i1 - 4);
      const std::int64_t j = rng.uniform_int(j0, j1 - 4);
      // Mostly partitions along cell lines, some diagonals between corners.
      const std::int64_t di = k % 3 == 1 ? 0 : rng.uniform_int(1, 4);
      const std::int64_t dj = k % 3 == 0 ? 0 : rng.uniform_int(1, 4);
      const bool flip = k % 6 == 5;
      inner.push_back({{corner(i, flip ? j + dj : j),
                        corner(i + di, flip ? j : j + dj)},
                       1.0 + 0.1 * k + rng.uniform(0.0, 0.1),
                       "o"});
    }
    const Room room = anchored_room(origin, size, inner);
    ASSERT_EQ(room.obstacle_grid().cell_size_m(), side);
    std::vector<Segment> rays = grazing_rays(rng, room);
    for (int k = 0; k < 6000; ++k) {
      const Vec2 a = random_corner();
      Vec2 b = random_corner();
      if (k % 4 == 0) b.y = a.y;  // along a cell line
      if (k % 4 == 1) b.x = a.x;
      rays.push_back({a, b});
    }
    // Through obstacle endpoints, ending on them, and along them.
    for (const Obstacle& o : room.obstacles()) {
      rays.push_back({random_corner(), o.segment.a});
      rays.push_back({o.segment.b, random_corner()});
      rays.push_back({o.segment.a, o.segment.b});
      rays.push_back({o.segment.a * 2.0 - o.segment.b,
                      o.segment.b * 2.0 - o.segment.a});
    }
    EXPECT_GT(expect_indexed_matches_full(room, rays), 0);
  }
}

TEST(ObstacleGridTest, CrossingsInTheUlpBelowAColumnEdgeMatchFullLoop) {
  // floor(x / side) can put the double just below c * side, as computed, in
  // column c. A steep ray from that double to c * side crosses an obstacle
  // starting there between two adjacent doubles, and its part below the
  // computed edge lies outside the column's exact x-range: only the
  // padding makes the query see it. Far from the origin that gap is wide
  // enough for the strict crossing test to count the crossing.
  for (const double offset : {3e4, 1e5}) {
    SCOPED_TRACE(offset);
    const Vec2 origin{offset, offset};
    const double size = 40.0;
    const int count = 1001;  // side 40 / sqrt(1001): edges with gaps below
    const double side = anchored_side(origin, size, count);
    std::vector<Obstacle> inner;
    std::vector<Segment> rays;
    const auto first = static_cast<std::int64_t>(std::ceil(offset / side));
    const auto last =
        static_cast<std::int64_t>(std::floor((offset + size - 3.0) / side));
    for (std::int64_t c = first; c <= last; ++c) {
      const double edge = static_cast<double>(c) * side;
      const double below = std::nextafter(edge, 0.0);
      if (std::floor(below / side) != static_cast<double>(c)) continue;
      const double k = static_cast<double>(rays.size());
      const double y = offset + 4.0 + 0.37 * k;
      inner.push_back({{{below, y}, {below + 2.0, y}}, 1.0 + 0.1 * k, "o"});
      rays.push_back({{below, y - 3.0 * side}, {edge, y + 3.0 * side}});
    }
    ASSERT_FALSE(rays.empty()) << "no column edge with a gap below it";
    inner.resize(static_cast<std::size_t>(count - 2), placeholder(origin));
    const Room room = anchored_room(origin, size, inner);
    ASSERT_EQ(room.obstacle_grid().cell_size_m(), side);
    EXPECT_EQ(expect_indexed_matches_full(room, rays),
              static_cast<int>(rays.size()));
  }
}

TEST(ObstacleGridTest, FarOutsideTheBoundingBoxMatchesFullLoop) {
  Rng rng(5);
  const Room room = random_obstacles(rng, 150, {10.0, -30.0}, 25.0);
  std::vector<Segment> rays;
  for (int i = 0; i < 3000; ++i) {
    const Vec2 inside = random_point(rng, {10.0, -30.0}, {35.0, -5.0});
    const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double reach = std::pow(10.0, rng.uniform(2.0, 5.0));
    const Vec2 out = inside + Vec2{reach * std::cos(angle),
                                   reach * std::sin(angle)};
    rays.push_back({inside, out});                   // leaves the grid
    rays.push_back({out, inside * 2.0 - out});       // crosses it end to end
    rays.push_back({out, out + Vec2{-reach, 3.0}});  // may never enter
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  rays.push_back({{nan, 0.0}, {20.0, -10.0}});
  rays.push_back({{15.0, nan}, {20.0, -10.0}});
  EXPECT_GT(expect_indexed_matches_full(room, rays), 0);
}

TEST(ObstacleGridTest, NoObstaclesIsFree) {
  const Room room = Room::rectangular(12.0, 8.0);
  const UniformGrid grid = room.obstacle_grid();
  EXPECT_TRUE(grid.cells().empty());
  EXPECT_EQ(grid.entry_count(), 0u);
  std::vector<std::int32_t> candidates;
  Rng rng(3);
  for (const Segment& ray : random_rays(rng, 100, {-5.0, -5.0}, {20.0, 20.0})) {
    EXPECT_EQ(room.obstruction_loss_db(ray.a, ray.b, grid, candidates), 0.0);
    grid.along_segment(ray, candidates);
    EXPECT_TRUE(candidates.empty());
  }
  EXPECT_EQ(candidates.capacity(), 0u);
}

TEST(ObstacleGridTest, ComputePathsIndexedMatchesFullLoop) {
  Rng rng(17);
  Room room = Room::rectangular(30.0, 20.0, 7.3);
  const Room obstacles = random_obstacles(rng, 160, {0.0, 0.0}, 24.0);
  for (const Obstacle& o : obstacles.obstacles()) room.add_obstacle(o);
  const UniformGrid grid = room.obstacle_grid();
  int obstructed = 0;
  for (int order = 0; order <= 2; ++order) {
    SCOPED_TRACE(order);
    for (int trial = 0; trial < 150; ++trial) {
      const Vec2 tx = random_point(rng, {0.5, 0.5}, {29.5, 19.5});
      const Vec2 rx = random_point(rng, {0.5, 0.5}, {29.5, 19.5});
      const auto full = compute_paths(room, tx, rx, order);
      const auto indexed = compute_paths(room, grid, tx, rx, order);
      ASSERT_EQ(indexed.size(), full.size());
      for (std::size_t k = 0; k < full.size(); ++k) {
        EXPECT_EQ(indexed[k].length_m, full[k].length_m);
        EXPECT_EQ(indexed[k].reflection_loss_db, full[k].reflection_loss_db);
        EXPECT_EQ(indexed[k].obstruction_loss_db, full[k].obstruction_loss_db);
        EXPECT_EQ(indexed[k].order, full[k].order);
        EXPECT_EQ(indexed[k].wall_indices, full[k].wall_indices);
        if (full[k].obstruction_loss_db != 0.0) ++obstructed;
      }
    }
  }
  EXPECT_GT(obstructed, 0);
}

}  // namespace
}  // namespace uwb::geom
