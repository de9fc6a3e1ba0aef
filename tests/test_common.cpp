// Unit tests: common utilities (units, constants, RNG, precondition macros).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <type_traits>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "common/random.hpp"
#include "common/units.hpp"

namespace uwb {
namespace {

TEST(SimTimeTest, ConversionsRoundTrip) {
  const SimTime t = SimTime::from_seconds(1.5);
  EXPECT_EQ(t.ps(), 1'500'000'000'000LL);
  EXPECT_DOUBLE_EQ(t.seconds(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::from_micros(290.0).micros(), 290.0);
  EXPECT_DOUBLE_EQ(SimTime::from_nanos(8.0).nanos(), 8.0);
}

TEST(SimTimeTest, NegativeDurationsRoundCorrectly) {
  EXPECT_EQ(SimTime::from_nanos(-1.0).ps(), -1000);
  EXPECT_EQ(SimTime::from_seconds(-2.5).seconds(), -2.5);
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::from_micros(100.0);
  const SimTime b = SimTime::from_micros(40.0);
  EXPECT_EQ((a + b).micros(), 140.0);
  EXPECT_EQ((a - b).micros(), 60.0);
  EXPECT_EQ((b * 3).micros(), 120.0);
  SimTime c = a;
  c += b;
  EXPECT_EQ(c, SimTime::from_micros(140.0));
  c -= b;
  EXPECT_EQ(c, a);
}

TEST(SimTimeTest, Ordering) {
  EXPECT_LT(SimTime::from_nanos(1.0), SimTime::from_nanos(2.0));
  EXPECT_GE(SimTime::from_nanos(2.0), SimTime::from_nanos(2.0));
  EXPECT_GT(SimTime::from_seconds(1.0), SimTime::from_micros(999999.0));
}

TEST(SimTimeTest, ToStringMentionsMicroseconds) {
  EXPECT_NE(SimTime::from_micros(290.0).to_string().find("290.0"),
            std::string::npos);
}

TEST(UnitsTest, DbLinearRoundTrip) {
  EXPECT_NEAR(db_to_linear(0.0), 1.0, 1e-12);
  EXPECT_NEAR(db_to_linear(10.0), 10.0, 1e-12);
  EXPECT_NEAR(db_to_linear(-3.0), 0.501187, 1e-5);
  EXPECT_NEAR(linear_to_db(100.0), 20.0, 1e-12);
  for (double db : {-20.0, -3.0, 0.0, 7.5, 30.0})
    EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-9);
}

TEST(ConstantsTest, Dw1000DatasheetValues) {
  // ~15.65 ps tick (User Manual), 63.8976 GHz clock.
  EXPECT_NEAR(k::dw_tick_ps, 15.65, 0.01);
  EXPECT_NEAR(k::dw_tick_hz, 63.8976e9, 1e3);
  // T_s = 1.0016 ns (paper Sect. VII).
  EXPECT_NEAR(k::cir_ts_ns, 1.0016, 0.0001);
  EXPECT_EQ(k::cir_len_prf64, 1016);
  // 108 pulse shapes (paper Sect. V: "up to 108 different pulse shapes").
  EXPECT_GE(k::num_pulse_shapes, 108);
  EXPECT_LE(k::num_pulse_shapes, 109);
}

TEST(ExpectsTest, ThrowsOnViolation) {
  EXPECT_THROW(UWB_EXPECTS(1 == 2), PreconditionError);
  EXPECT_THROW(UWB_ENSURES(false), InvariantError);
  EXPECT_NO_THROW(UWB_EXPECTS(true));
}

TEST(ExpectsTest, MessageNamesExpression) {
  try {
    UWB_EXPECTS(2 + 2 == 5);
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("2 + 2 == 5"), std::string::npos);
  }
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(RngTest, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(2);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(3));
}

TEST(RngTest, NormalMoments) {
  Rng rng(3);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(RngTest, NormalZeroSigmaIsMean) {
  Rng rng(4);
  EXPECT_DOUBLE_EQ(rng.normal(7.0, 0.0), 7.0);
}

TEST(RngTest, RayleighMeanPower) {
  // E[a^2] = 2 sigma^2 for Rayleigh(sigma).
  Rng rng(5);
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.rayleigh(1.5);
    EXPECT_GE(v, 0.0);
    sq += v * v;
  }
  EXPECT_NEAR(sq / n, 2.0 * 1.5 * 1.5, 0.15);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.2);
}

TEST(RngTest, PoissonMean) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(3.5);
  EXPECT_NEAR(sum / n, 3.5, 0.15);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, ComplexNormalIsCircular) {
  Rng rng(9);
  Complex sum{};
  double power = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const Complex v = rng.complex_normal(0.5);
    sum += v;
    power += std::norm(v);
  }
  EXPECT_NEAR(std::abs(sum) / n, 0.0, 0.02);
  EXPECT_NEAR(power / n, 2.0 * 0.25, 0.02);  // 2 sigma^2
}

TEST(RngTest, RandomPhaseUnitMagnitude) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i)
    EXPECT_NEAR(std::abs(rng.random_phase()), 1.0, 1e-12);
}

TEST(RngTest, ForkGivesIndependentStream) {
  Rng a(11);
  Rng b = a.fork();
  // Streams should not be identical.
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++same;
  EXPECT_LT(same, 5);
}

TEST(RngTest, PreconditionViolations) {
  Rng rng(12);
  EXPECT_THROW(rng.uniform(2.0, 1.0), PreconditionError);
  EXPECT_THROW(rng.normal(0.0, -1.0), PreconditionError);
  EXPECT_THROW(rng.chance(1.5), PreconditionError);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
}

// Only derive_seed mints a StreamSeed; every use of a plain seed still
// reads it as its value.
static_assert(!std::is_constructible_v<StreamSeed, std::uint64_t>);
static_assert(std::is_convertible_v<StreamSeed, std::uint64_t>);

TEST(StreamSeedTest, SeedsTheSameStreamAsItsValue) {
  for (const std::uint64_t base : {0ull, 1ull, 404ull, ~0ull}) {
    for (const std::uint64_t stream : {0ull, 3ull, 1ull << 40}) {
      Rng derived(derive_seed(base, stream));
      Rng raw(std::uint64_t{derive_seed(base, stream)});
      for (int i = 0; i < 16; ++i)
        ASSERT_EQ(derived.engine()(), raw.engine()()) << base << "/" << stream;
    }
  }
}

}  // namespace
}  // namespace uwb
