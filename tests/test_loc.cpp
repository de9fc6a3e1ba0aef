// Unit tests: multilateration solver and the anchor-based localisation
// extension (paper future work).
#include <gtest/gtest.h>

#include <cmath>

#include "common/expects.hpp"
#include "common/random.hpp"
#include "loc/anchor_system.hpp"
#include "loc/multilateration.hpp"

namespace uwb::loc {
namespace {

std::vector<RangeObservation> perfect_ranges(
    const std::vector<geom::Vec2>& anchors, geom::Vec2 truth) {
  std::vector<RangeObservation> obs;
  for (const auto& a : anchors) obs.push_back({a, geom::distance(a, truth)});
  return obs;
}

TEST(MultilaterationTest, ExactRangesExactPosition) {
  const std::vector<geom::Vec2> anchors{{0.0, 0.0}, {10.0, 0.0}, {0.0, 8.0}, {10.0, 8.0}};
  const geom::Vec2 truth{3.2, 5.7};
  const PositionFix fix = multilaterate(perfect_ranges(anchors, truth));
  EXPECT_TRUE(fix.converged);
  EXPECT_NEAR(fix.position.x, truth.x, 1e-6);
  EXPECT_NEAR(fix.position.y, truth.y, 1e-6);
  EXPECT_NEAR(fix.residual_rms_m, 0.0, 1e-6);
}

TEST(MultilaterationTest, ThreeAnchorsSuffice) {
  const std::vector<geom::Vec2> anchors{{0.0, 0.0}, {12.0, 0.0}, {6.0, 9.0}};
  const geom::Vec2 truth{5.0, 3.0};
  const PositionFix fix = multilaterate(perfect_ranges(anchors, truth));
  EXPECT_TRUE(fix.converged);
  EXPECT_NEAR(fix.position.x, truth.x, 1e-6);
  EXPECT_NEAR(fix.position.y, truth.y, 1e-6);
}

TEST(MultilaterationTest, NoisyRangesStayClose) {
  Rng rng(5);
  const std::vector<geom::Vec2> anchors{{0.0, 0.0}, {10.0, 0.0}, {0.0, 8.0}, {10.0, 8.0}};
  const geom::Vec2 truth{4.0, 4.0};
  auto obs = perfect_ranges(anchors, truth);
  for (auto& o : obs) o.distance_m += rng.normal(0.0, 0.05);
  const PositionFix fix = multilaterate(obs);
  EXPECT_TRUE(fix.converged);
  EXPECT_LT(geom::distance(fix.position, truth), 0.2);
  EXPECT_GT(fix.residual_rms_m, 0.0);
}

TEST(MultilaterationTest, CustomInitialGuess) {
  const std::vector<geom::Vec2> anchors{{0.0, 0.0}, {10.0, 0.0}, {5.0, 9.0}};
  const geom::Vec2 truth{7.0, 2.0};
  const PositionFix fix =
      multilaterate_from(perfect_ranges(anchors, truth), {6.0, 3.0});
  EXPECT_TRUE(fix.converged);
  EXPECT_NEAR(fix.position.x, truth.x, 1e-6);
}

TEST(MultilaterationTest, DegenerateCollinearGeometryDoesNotConverge) {
  // Collinear anchors leave a mirror ambiguity; the solver must not claim a
  // wrong high-confidence answer from the centroid start (which sits on the
  // ambiguity line where the normal matrix is singular).
  const std::vector<geom::Vec2> anchors{{0.0, 0.0}, {5.0, 0.0}, {10.0, 0.0}};
  const geom::Vec2 truth{5.0, 3.0};
  const PositionFix fix = multilaterate(perfect_ranges(anchors, truth));
  // Either it failed to converge, or it found one of the two mirror points.
  if (fix.converged) {
    EXPECT_NEAR(std::abs(fix.position.y), 3.0, 1e-3);
  }
}

TEST(MultilaterationTest, TooFewAnchorsThrow) {
  EXPECT_THROW(multilaterate({{{0.0, 0.0}, 1.0}, {{1.0, 0.0}, 1.0}}),
               PreconditionError);
}

TEST(MultilaterationTest, BadOptionsThrow) {
  const std::vector<geom::Vec2> anchors{{0.0, 0.0}, {10.0, 0.0}, {5.0, 9.0}};
  SolverOptions opt;
  opt.max_iterations = 0;
  EXPECT_THROW(multilaterate(perfect_ranges(anchors, {1.0, 1.0}), opt),
               PreconditionError);
}

AnchorSystemConfig office_config(std::uint64_t seed) {
  AnchorSystemConfig cfg;
  cfg.scenario.room = geom::Room::rectangular(12.0, 8.0, 10.0);
  cfg.scenario.seed = seed;
  // Four anchors with distinct RPM slots (IDs 0..3, N_RPM = 4).
  cfg.scenario.ranging.num_slots = 4;
  cfg.scenario.ranging.slot_spacing_s = 120e-9;
  cfg.scenario.responders = {{0, {0.5, 0.5}},
                             {1, {11.5, 0.5}},
                             {2, {11.5, 7.5}},
                             {3, {0.5, 7.5}}};
  return cfg;
}

TEST(AnchorSystemTest, SingleRoundFix) {
  AnchorLocalizer localizer(office_config(11));
  const Fix fix = localizer.locate({6.0, 4.0});
  ASSERT_TRUE(fix.round.payload_decoded);
  EXPECT_EQ(fix.anchors_used, 4);
  ASSERT_TRUE(fix.ok);
  // Slot-decoded distances carry the +-8 ns TX truncation -> sub-metre fix.
  EXPECT_LT(fix.error_m, 0.8);
}

TEST(AnchorSystemTest, IdealTxTimingGivesDecimetreFix) {
  AnchorSystemConfig cfg = office_config(12);
  cfg.scenario.delayed_tx_truncation = false;
  AnchorLocalizer localizer(cfg);
  const Fix fix = localizer.locate({4.0, 3.0});
  ASSERT_TRUE(fix.ok);
  EXPECT_LT(fix.error_m, 0.15);
}

TEST(AnchorSystemTest, SequentialFixesTrackMovingTag) {
  AnchorLocalizer localizer(office_config(13));
  int good = 0;
  for (double x = 3.0; x <= 9.0; x += 1.5) {
    const Fix fix = localizer.locate({x, 4.0});
    // The 8 ns TX truncation leaves a non-sync range off by up to ~1.2 m
    // (the difference of two truncations, c * 8 ns / 2, triangular); a
    // 4-anchor LS fix stays within ~1.2 m.
    if (fix.ok && fix.error_m < 1.2) ++good;
  }
  EXPECT_GE(good, 4);
}

TEST(AnchorSystemTest, RequiresThreeAnchors) {
  AnchorSystemConfig cfg = office_config(14);
  cfg.scenario.responders.resize(2);
  EXPECT_THROW(AnchorLocalizer{cfg}, PreconditionError);
}

}  // namespace
}  // namespace uwb::loc
