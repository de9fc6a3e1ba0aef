// Unit tests: path loss, Saleh-Valenzuela diffuse tail, channel realisation
// (the paper's Eq. 1 channel model).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "channel/channel_model.hpp"
#include "channel/path_loss.hpp"
#include "channel/saleh_valenzuela.hpp"
#include "common/constants.hpp"
#include "common/expects.hpp"
#include "common/hash.hpp"
#include "common/units.hpp"
#include "simd/math.hpp"
#include "simd/simd.hpp"

namespace uwb::channel {
namespace {

TEST(PathLossTest, LogDistanceSlope) {
  const double l1 = log_distance_loss_db(1.0, 1.8, 40.0);
  EXPECT_DOUBLE_EQ(l1, 40.0);
  EXPECT_NEAR(log_distance_loss_db(10.0, 1.8, 40.0) - l1, 18.0, 1e-12);
  EXPECT_NEAR(log_distance_loss_db(100.0, 2.0, 40.0), 80.0, 1e-9);
}

TEST(PathLossTest, LossToAmplitude) {
  EXPECT_DOUBLE_EQ(loss_db_to_amplitude(0.0), 1.0);
  EXPECT_NEAR(loss_db_to_amplitude(20.0), 0.1, 1e-12);
  EXPECT_NEAR(loss_db_to_amplitude(6.0), 0.501, 1e-3);
}

TEST(SalehValenzuelaTest, TotalPowerNearTarget) {
  SalehValenzuelaParams params;
  params.total_power_rel_db = -6.0;
  Rng rng(1);
  // Average realised diffuse power over many draws ~= target.
  double total = 0.0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    for (const DiffuseRay& ray : draw_diffuse_tail(params, rng))
      total += std::norm(ray.amplitude);
  }
  EXPECT_NEAR(total / n, db_to_linear(-6.0), 0.1);
}

TEST(SalehValenzuelaTest, DelaysWithinWindow) {
  SalehValenzuelaParams params;
  params.window_s = 80e-9;
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    for (const DiffuseRay& ray : draw_diffuse_tail(params, rng)) {
      EXPECT_GT(ray.excess_delay_s, 0.0);
      EXPECT_LE(ray.excess_delay_s, params.window_s);
    }
  }
}

TEST(SalehValenzuelaTest, PowerDecaysWithDelay) {
  SalehValenzuelaParams params;
  Rng rng(3);
  // Average power in the first third vs the last third of the window.
  double early = 0.0, late = 0.0;
  int early_n = 0, late_n = 0;
  for (int i = 0; i < 500; ++i) {
    for (const DiffuseRay& ray : draw_diffuse_tail(params, rng)) {
      if (ray.excess_delay_s < params.window_s / 3.0) {
        early += std::norm(ray.amplitude);
        ++early_n;
      } else if (ray.excess_delay_s > 2.0 * params.window_s / 3.0) {
        late += std::norm(ray.amplitude);
        ++late_n;
      }
    }
  }
  ASSERT_GT(early_n, 100);
  ASSERT_GT(late_n, 100);
  EXPECT_GT(early / early_n, 3.0 * (late / late_n));
}

TEST(SalehValenzuelaTest, NoDiffuseRayReachesLosAmplitude) {
  // The invariant behind the Eq. 1 detectability rule: a diffuse ray is
  // scaled by the LOS tap's magnitude, so a normalized magnitude below 1
  // means no ray outshines the LOS tap, and a frame whose specular taps
  // all miss the detection threshold has no diffuse ray above it either.
  // Rayleigh draws are unbounded, so this is a measured margin, not a
  // proof: the largest ray over 20 000 default tails is about 0.23.
  const SalehValenzuelaParams params;
  Rng rng(2018);
  double largest = 0.0;
  std::size_t rays = 0;
  for (int i = 0; i < 20000; ++i) {
    for (const DiffuseRay& ray : draw_diffuse_tail(params, rng)) {
      largest = std::max(largest, std::abs(ray.amplitude));
      ++rays;
    }
  }
  EXPECT_GT(rays, 10'000'000u);
  EXPECT_LT(largest, 1.0) << "largest normalized diffuse ray " << largest;
}

TEST(SalehValenzuelaTest, InvalidParamsThrow) {
  SalehValenzuelaParams params;
  params.window_s = 0.0;
  Rng rng(4);
  EXPECT_THROW(draw_diffuse_tail(params, rng), PreconditionError);
}

// The tail as drawn one ray at a time, in draw order: the delay walk with a
// cluster factor per ray, then Rng::rayleigh and Rng::random_phase per ray.
// Sorted stably, it is what the batched draw must reproduce bit for bit.
std::vector<DiffuseRay> one_ray_at_a_time(const SalehValenzuelaParams& params,
                                          Rng& rng) {
  struct RawRay {
    double delay = 0.0;
    double mean_power = 0.0;
  };
  std::vector<RawRay> raw;
  double cluster_t = 0.0;
  while (cluster_t < params.window_s) {
    double ray_t = 0.0;
    while (cluster_t + ray_t < params.window_s) {
      const double mean_power = simd::exp(-cluster_t / kClusterDecayS) *
                                simd::exp(-ray_t / kRayDecayS);
      if (cluster_t + ray_t > 0.0)
        raw.push_back({cluster_t + ray_t, mean_power});
      ray_t += rng.exponential(1.0 / kRayRateHz);
    }
    cluster_t += rng.exponential(1.0 / params.cluster_rate_hz);
  }
  if (raw.empty()) return {};
  double mean_total = 0.0;
  for (const RawRay& r : raw) mean_total += r.mean_power;
  const double scale = db_to_linear(params.total_power_rel_db) / mean_total;
  std::vector<DiffuseRay> rays;
  for (const RawRay& r : raw) {
    const double mean_amp = std::sqrt(r.mean_power * scale);
    const double a = rng.rayleigh(mean_amp / std::sqrt(2.0));
    rays.push_back({r.delay, rng.random_phase() * a});
  }
  return rays;
}

std::vector<DiffuseRay> stable_sorted(std::vector<DiffuseRay> rays,
                                      double t0_s) {
  std::stable_sort(rays.begin(), rays.end(),
                   [t0_s](const DiffuseRay& a, const DiffuseRay& b) {
                     return t0_s + a.excess_delay_s < t0_s + b.excess_delay_s;
                   });
  return rays;
}

void expect_same_rays(const std::vector<DiffuseRay>& got,
                      const std::vector<DiffuseRay>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(double_bits(got[i].excess_delay_s),
              double_bits(want[i].excess_delay_s)) << "ray " << i;
    ASSERT_EQ(double_bits(got[i].amplitude.real()),
              double_bits(want[i].amplitude.real())) << "ray " << i;
    ASSERT_EQ(double_bits(got[i].amplitude.imag()),
              double_bits(want[i].amplitude.imag())) << "ray " << i;
  }
}

TEST(SalehValenzuelaTest, BatchedTailEqualsTheOneRayLoopAndStableSort) {
  SalehValenzuelaParams few;  // a handful of rays: partial blocks only
  few.window_s = 4e-9;
  SalehValenzuelaParams dense;  // many overlapping clusters
  dense.cluster_rate_hz = 0.5e9;
  // t0 = 1e8 s rounds most absolute delays onto a few values, so the sort
  // meets many equal delays from different clusters.
  for (const double t0 : {0.0, 30e-9, 1e8}) {
    for (const SalehValenzuelaParams& params :
         {SalehValenzuelaParams{}, few, dense}) {
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(testing::Message() << "t0 " << t0 << " seed " << seed
                                        << " window " << params.window_s);
        Rng batched(seed), reference(seed);
        expect_same_rays(t0 == 0.0 ? draw_diffuse_tail(params, batched)
                                   : draw_diffuse_tail(params, batched, t0),
                         stable_sorted(one_ray_at_a_time(params, reference),
                                       t0));
        EXPECT_EQ(batched.bits(), reference.bits());
      }
    }
  }
  // No ray at all: the walk leaves the window at once.
  SalehValenzuelaParams empty;
  empty.window_s = 1e-15;
  Rng batched(3), reference(3);
  EXPECT_TRUE(draw_diffuse_tail(empty, batched).empty());
  EXPECT_TRUE(one_ray_at_a_time(empty, reference).empty());
  EXPECT_EQ(batched.bits(), reference.bits());
}

TEST(SalehValenzuelaTest, TailIdenticalAtBothSimdLevels) {
  const simd::Level saved = simd::active_level();
  ASSERT_TRUE(simd::set_active_level(simd::Level::kScalar));
  Rng scalar_rng(44);
  const std::vector<DiffuseRay> scalar = draw_diffuse_tail({}, scalar_rng);
  if (simd::set_active_level(simd::Level::kAvx2)) {
    Rng avx2_rng(44);
    expect_same_rays(draw_diffuse_tail({}, avx2_rng), scalar);
  }
  simd::set_active_level(saved);
}

class ChannelModelTest : public ::testing::Test {
 protected:
  ChannelModelParams params_;
  geom::Room room_ = geom::Room::rectangular(20.0, 10.0);
};

TEST_F(ChannelModelTest, LosDelayMatchesGeometry) {
  ChannelModel model(room_, params_);
  Rng rng(5);
  const auto ch = model.realize({2.0, 5.0}, {12.0, 5.0}, rng);
  EXPECT_NEAR(ch.los_delay_s, 10.0 / k::c_air, 1e-15);
  ASSERT_FALSE(ch.taps.empty());
  // First deterministic tap is the LOS at the geometric delay.
  const Tap* los = nullptr;
  for (const Tap& t : ch.taps)
    if (t.deterministic && t.order == 0) {
      los = &t;
      break;
    }
  ASSERT_NE(los, nullptr);
  EXPECT_NEAR(los->delay_s, ch.los_delay_s, 1e-15);
}

TEST_F(ChannelModelTest, TapsSortedByDelay) {
  ChannelModel model(room_, params_);
  Rng rng(6);
  const auto ch = model.realize({3.0, 4.0}, {15.0, 7.0}, rng);
  for (std::size_t i = 1; i < ch.taps.size(); ++i)
    EXPECT_GE(ch.taps[i].delay_s, ch.taps[i - 1].delay_s);
}

TEST_F(ChannelModelTest, AmplitudeFallsWithDistance) {
  params_.enable_diffuse = false;
  params_.specular_fading_db = 0.0;
  ChannelModel model(room_, params_);
  Rng rng(7);
  const auto near = model.realize({2.0, 5.0}, {5.0, 5.0}, rng);
  const auto far = model.realize({2.0, 5.0}, {18.0, 5.0}, rng);
  EXPECT_GT(std::abs(near.taps.front().amplitude),
            std::abs(far.taps.front().amplitude));
}

TEST_F(ChannelModelTest, PathLossExponentRespected) {
  params_.enable_diffuse = false;
  params_.specular_fading_db = 0.0;
  params_.max_reflection_order = 0;
  params_.path_loss_exponent = 2.0;
  ChannelModel model(room_, params_);
  Rng rng(8);
  const auto d1 = model.realize({1.0, 5.0}, {2.0, 5.0}, rng);   // 1 m
  const auto d10 = model.realize({1.0, 5.0}, {11.0, 5.0}, rng); // 10 m
  const double ratio = std::abs(d1.taps.front().amplitude) /
                       std::abs(d10.taps.front().amplitude);
  EXPECT_NEAR(ratio, 10.0, 1e-6);  // n=2 -> amplitude ~ 1/d
}

TEST_F(ChannelModelTest, DiffuseTailAddsNonDeterministicTaps) {
  ChannelModel model(room_, params_);
  Rng rng(9);
  const auto ch = model.realize({2.0, 5.0}, {10.0, 5.0}, rng);
  int diffuse = 0;
  for (const Tap& t : ch.taps)
    if (!t.deterministic) ++diffuse;
  EXPECT_GT(diffuse, 10);
  // Diffuse taps never precede the LOS.
  for (const Tap& t : ch.taps) {
    if (!t.deterministic) {
      EXPECT_GE(t.delay_s, ch.los_delay_s);
    }
  }
}

TEST_F(ChannelModelTest, DisableDiffuseRemovesThem) {
  params_.enable_diffuse = false;
  ChannelModel model(room_, params_);
  Rng rng(10);
  for (const Tap& t : model.realize({2.0, 5.0}, {10.0, 5.0}, rng).taps)
    EXPECT_TRUE(t.deterministic);
}

TEST_F(ChannelModelTest, ObstructedLosWeakerThanClear) {
  params_.enable_diffuse = false;
  params_.specular_fading_db = 0.0;
  geom::Room blocked = room_;
  blocked.add_obstacle({{{7.0, 0.0}, {7.0, 10.0}}, 20.0});
  ChannelModel clear_model(room_, params_);
  ChannelModel blocked_model(blocked, params_);
  Rng rng(11);
  const auto clear_ch = clear_model.realize({2.0, 5.0}, {12.0, 5.0}, rng);
  const auto blocked_ch = blocked_model.realize({2.0, 5.0}, {12.0, 5.0}, rng);
  EXPECT_NEAR(linear_to_db(std::norm(clear_ch.taps.front().amplitude) /
                           std::norm(blocked_ch.taps.front().amplitude)),
              20.0, 1e-6);
}

TEST_F(ChannelModelTest, NlosCanMakeMpcStrongerThanDirect) {
  // The scenario motivating challenge IV: with a heavily obstructed direct
  // path, a wall reflection dominates the CIR.
  params_.enable_diffuse = false;
  params_.specular_fading_db = 0.0;
  geom::Room blocked = geom::Room::rectangular(20.0, 10.0, 3.0);
  blocked.add_obstacle({{{7.0, 4.0}, {7.0, 6.0}}, 25.0});
  ChannelModel model(blocked, params_);
  Rng rng(12);
  const auto ch = model.realize({2.0, 5.0}, {12.0, 5.0}, rng);
  const Tap& los = ch.taps.front();
  double strongest_mpc = 0.0;
  for (const Tap& t : ch.taps)
    if (t.order >= 1)
      strongest_mpc = std::max(strongest_mpc, std::abs(t.amplitude));
  EXPECT_GT(strongest_mpc, std::abs(los.amplitude));
}

TEST_F(ChannelModelTest, RealizeIsSpecularStageThenDiffuseCompletion) {
  // realize() is the two stages on one stream: bit-identical taps, and the
  // completion leaves the stream exactly where realize() leaves it.
  ChannelModel model(room_, params_);
  const geom::Vec2 rx_spots[] = {{4.0, 5.0}, {12.0, 2.5}, {18.5, 9.0}};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const geom::Vec2 rx : rx_spots) {
      Rng whole(seed);
      Rng staged(seed);
      const ChannelRealization ch = model.realize({2.0, 5.0}, rx, whole);
      SpecularStage stage = model.realize_specular({2.0, 5.0}, rx, staged);
      // The specular stage: deterministic taps only, the LOS first.
      ASSERT_FALSE(stage.channel.taps.empty());
      EXPECT_EQ(stage.channel.taps.front().order, 0);
      EXPECT_DOUBLE_EQ(stage.channel.taps.front().delay_s,
                       stage.channel.los_delay_s);
      EXPECT_DOUBLE_EQ(stage.diffuse_ref_amp,
                       std::abs(stage.channel.taps.front().amplitude));
      for (const Tap& t : stage.channel.taps) EXPECT_TRUE(t.deterministic);
      const std::size_t specular = stage.channel.taps.size();

      const ChannelRealization done =
          model.complete_diffuse(std::move(stage), staged);
      ASSERT_EQ(done.taps.size(), ch.taps.size());
      EXPECT_GT(done.taps.size(), specular);
      EXPECT_EQ(double_bits(done.los_delay_s), double_bits(ch.los_delay_s));
      for (std::size_t i = 0; i < ch.taps.size(); ++i) {
        EXPECT_EQ(double_bits(done.taps[i].delay_s),
                  double_bits(ch.taps[i].delay_s));
        EXPECT_EQ(double_bits(done.taps[i].amplitude.real()),
                  double_bits(ch.taps[i].amplitude.real()));
        EXPECT_EQ(double_bits(done.taps[i].amplitude.imag()),
                  double_bits(ch.taps[i].amplitude.imag()));
        EXPECT_EQ(done.taps[i].deterministic, ch.taps[i].deterministic);
        EXPECT_EQ(done.taps[i].order, ch.taps[i].order);
      }
      EXPECT_EQ(whole.bits(), staged.bits());
    }
  }
}

TEST_F(ChannelModelTest, CompletionEqualsAppendAndStableSort) {
  // The completion merges sorted runs; appending the tail and sorting the
  // whole list stably by delay, as it used to, gives the same taps.
  ChannelModel model(room_, params_);
  const geom::Vec2 rx_spots[] = {{4.0, 5.0}, {12.0, 2.5}, {18.5, 9.0}};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const geom::Vec2 rx : rx_spots) {
      Rng merged(seed), sorted(seed);
      const ChannelRealization got = model.realize({2.0, 5.0}, rx, merged);
      SpecularStage stage = model.realize_specular({2.0, 5.0}, rx, sorted);
      std::vector<Tap> want = stage.channel.taps;
      for (const DiffuseRay& ray : one_ray_at_a_time(params_.diffuse, sorted)) {
        Tap tap;
        tap.delay_s = stage.channel.los_delay_s + ray.excess_delay_s;
        tap.amplitude = ray.amplitude * stage.diffuse_ref_amp;
        want.push_back(tap);
      }
      std::stable_sort(
          want.begin(), want.end(),
          [](const Tap& a, const Tap& b) { return a.delay_s < b.delay_s; });
      ASSERT_EQ(got.taps.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(double_bits(got.taps[i].delay_s),
                  double_bits(want[i].delay_s));
        EXPECT_EQ(got.taps[i].amplitude, want[i].amplitude);
        EXPECT_EQ(got.taps[i].deterministic, want[i].deterministic);
        EXPECT_EQ(got.taps[i].order, want[i].order);
      }
      EXPECT_EQ(merged.bits(), sorted.bits());
    }
  }
}

TEST_F(ChannelModelTest, ZeroDistanceThrows) {
  ChannelModel model(room_, params_);
  Rng rng(13);
  EXPECT_THROW(model.realize({2.0, 5.0}, {2.0, 5.0}, rng), PreconditionError);
}

TEST_F(ChannelModelTest, InvalidParamsThrow) {
  ChannelModelParams bad;
  bad.max_reflection_order = 5;
  EXPECT_THROW(ChannelModel(room_, bad), PreconditionError);
}

}  // namespace
}  // namespace uwb::channel
