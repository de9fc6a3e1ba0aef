// Unit tests: common utilities (units, constants, RNG, precondition macros).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "common/hash.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "simd/math.hpp"
#include "simd/simd.hpp"

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

// The Random123 known answers of Philox4x32-10 (Salmon et al., SC'11).
TEST(RngTest, PhiloxKnownAnswers) {
  using Ctr = std::array<std::uint32_t, 4>;
  using Key = std::array<std::uint32_t, 2>;
  EXPECT_EQ(simd::philox4x32_10(Ctr{0, 0, 0, 0}, Key{0, 0}),
            (Ctr{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}));
  EXPECT_EQ(simd::philox4x32_10(
                Ctr{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
                Key{0xffffffff, 0xffffffff}),
            (Ctr{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}));
  EXPECT_EQ(simd::philox4x32_10(
                Ctr{0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
                Key{0xa4093822, 0x299f31d0}),
            (Ctr{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}));
}

TEST(RngTest, StreamWordsAreThePhiloxBlocksInOrder) {
  // Seed 0: block 0 is the first known answer, low word first.
  Rng zero(std::uint64_t{0});
  EXPECT_EQ(zero.bits(), 0xe169c58d6627e8d5ull);
  EXPECT_EQ(zero.bits(), 0x9b00dbd8bc57ac4cull);
  // Any seed: the key is the seed's two halves, the counter the block.
  const std::uint64_t seed = 0x0123456789abcdefull;
  Rng rng(seed);
  for (std::uint32_t block = 0; block < 5; ++block) {
    const auto x =
        simd::philox4x32_10({block, 0, 0, 0}, {0x89abcdef, 0x01234567});
    EXPECT_EQ(rng.bits(), x[0] | (std::uint64_t{x[1]} << 32));
    EXPECT_EQ(rng.bits(), x[2] | (std::uint64_t{x[3]} << 32));
  }
}

TEST(RngTest, CopyContinuesTheSameStream) {
  Rng a(31);
  a.bits();
  (void)a.normal(0.0, 1.0);  // leaves a spare
  Rng b = a;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
    EXPECT_EQ(a.bits(), b.bits());
  }
}

// First values of every distribution on a fresh Rng(2018). Those that call
// only arithmetic are pinned bit for bit; those that take a log1p, log,
// sqrt, cos or sin to 4 ulps of the values libm's functions gave.
TEST(RngTest, GoldenFirstValues) {
  constexpr std::uint64_t kSeed = 2018;
  {
    Rng rng(kSeed);
    EXPECT_EQ(rng.bits(), 0xbf9ecf71d3017d7bull);
    EXPECT_EQ(rng.bits(), 0xaf86dab90a64e3caull);
    EXPECT_EQ(rng.bits(), 0x07e6432895c906c8ull);
  }
  {
    Rng rng(kSeed);
    EXPECT_EQ(rng.uniform(-2.0, 5.0), 3.2396190233458038);
    EXPECT_EQ(rng.uniform(-2.0, 5.0), 2.7995602524104086);
    EXPECT_EQ(rng.uniform(-2.0, 5.0), -1.7839990788847935);
  }
  {
    Rng rng(kSeed);
    EXPECT_EQ(rng.uniform_int(-3, 1000), 520);
    EXPECT_EQ(rng.uniform_int(-3, 1000), 831);
    EXPECT_EQ(rng.uniform_int(-3, 1000), 353);
  }
  {
    Rng rng(kSeed);
    EXPECT_FALSE(rng.chance(0.5));
    EXPECT_FALSE(rng.chance(0.5));
    EXPECT_TRUE(rng.chance(0.5));
  }
  {
    Rng rng(kSeed);
    EXPECT_DOUBLE_EQ(rng.normal(2.0, 3.0), 5.3211474748301901);
    EXPECT_DOUBLE_EQ(rng.normal(2.0, 3.0), 4.4810209550258335);  // spare
    EXPECT_DOUBLE_EQ(rng.normal(2.0, 3.0), 0.65253601960620222);
  }
  {
    Rng rng(kSeed);
    const Complex a = rng.complex_normal(0.5);
    EXPECT_DOUBLE_EQ(a.real(), 0.55352457913836506);
    EXPECT_DOUBLE_EQ(a.imag(), 0.41350349250430568);
    const Complex b = rng.complex_normal(0.5);
    EXPECT_DOUBLE_EQ(b.real(), -0.22457733006563296);
    EXPECT_DOUBLE_EQ(b.imag(), 0.035055970378234637);
  }
  {
    Rng rng(kSeed);
    EXPECT_DOUBLE_EQ(rng.rayleigh(1.5), 1.1416987845979825);
    EXPECT_DOUBLE_EQ(rng.rayleigh(1.5), 1.3031639660409453);
    EXPECT_DOUBLE_EQ(rng.rayleigh(1.5), 3.9563521584574044);
  }
  {
    Rng rng(kSeed);
    EXPECT_DOUBLE_EQ(rng.exponential(4.0), 5.5215195976885596);
    EXPECT_DOUBLE_EQ(rng.exponential(4.0), 4.6290116935897831);
    EXPECT_DOUBLE_EQ(rng.exponential(4.0), 0.12537354537326351);
  }
  {
    Rng rng(kSeed);
    const Complex a = rng.random_phase();
    EXPECT_DOUBLE_EQ(a.real(), -0.0093178080190516269);
    EXPECT_DOUBLE_EQ(a.imag(), -0.99995658828457157);
    const Complex b = rng.random_phase();
    EXPECT_DOUBLE_EQ(b.real(), -0.39338795382398228);
    EXPECT_DOUBLE_EQ(b.imag(), -0.91937256745357609);
  }
}

// --- moments over 200 000 draws, each within 5 standard errors -------------

constexpr int kMomentDraws = 200000;

struct Moments {
  double mean = 0.0;
  double var = 0.0;
};

template <class Draw>
Moments moments(Draw draw) {
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < kMomentDraws; ++i) {
    const double v = draw();
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kMomentDraws;
  return {mean, sq / kMomentDraws - mean * mean};
}

/// 5 standard errors of a mean of kMomentDraws samples of variance `var`.
double tol(double var) { return 5.0 * std::sqrt(var / kMomentDraws); }

TEST(RngTest, UnitMapsTheTop53Bits) {
  EXPECT_EQ(Rng::unit(0), 0.0);
  EXPECT_EQ(Rng::unit((1ull << 11) - 1), 0.0);  // low 11 bits ignored
  EXPECT_EQ(Rng::unit(1ull << 11), 0x1p-53);
  EXPECT_EQ(Rng::unit(~0ull), 1.0 - 0x1p-53);
}

TEST(RngTest, UniformStaysBelowHiAtTheLargestUnit) {
  const double u = Rng::unit(~0ull);
  // lo + (hi - lo)·u rounds to hi here; uniform_at must not return it.
  EXPECT_EQ(1.0 + (2.0 - 1.0) * u, 2.0);
  for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
           {1.0, 2.0}, {0.0, 1.0}, {-1.0, 1.0}, {-2.0, 5.0},
           {0.0, 2.0 * std::numbers::pi}, {1e-300, 1.0}, {3.0, 3.5}}) {
    const double x = Rng::uniform_at(u, lo, hi);
    EXPECT_LT(x, hi) << lo << ", " << hi;
    EXPECT_GE(x, lo) << lo << ", " << hi;
  }
  EXPECT_EQ(Rng::uniform_at(u, 1.0, 2.0), std::nextafter(2.0, 1.0));
  EXPECT_EQ(Rng::uniform_at(0.0, -2.0, 5.0), -2.0);
  EXPECT_EQ(Rng::uniform_at(u, 4.0, 4.0), 4.0);
}

TEST(RngTest, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
  // Mean (lo + hi) / 2, variance (hi - lo)² / 12.
  const Moments m = moments([&] { return rng.uniform(-2.0, 5.0); });
  EXPECT_NEAR(m.mean, 1.5, tol(49.0 / 12.0));
  // Var[(x - mean)²] = (hi - lo)⁴ (1/80 - 1/144).
  EXPECT_NEAR(m.var, 49.0 / 12.0, tol(2401.0 * (1.0 / 80.0 - 1.0 / 144.0)));
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(2);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(3));
  // Ten values, not a power of two: rejection keeps each at 1/10.
  std::array<int, 10> count{};
  for (int i = 0; i < kMomentDraws; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 6);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 6);
    ++count[static_cast<std::size_t>(v + 3)];
  }
  for (const int c : count)
    EXPECT_NEAR(static_cast<double>(c) / kMomentDraws, 0.1, tol(0.1 * 0.9));
  // The full range takes one word as it is.
  Rng a(3), b(3);
  EXPECT_EQ(static_cast<std::uint64_t>(a.uniform_int(
                std::numeric_limits<std::int64_t>::min(),
                std::numeric_limits<std::int64_t>::max())),
            b.bits() + (1ull << 63));
  EXPECT_EQ(a.bits(), b.bits());
  EXPECT_EQ(a.uniform_int(7, 7), 7);
}

TEST(RngTest, NormalMoments) {
  Rng rng(3);
  const Moments m = moments([&] { return rng.normal(2.0, 3.0); });
  EXPECT_NEAR(m.mean, 2.0, tol(9.0));
  // Var[(x - mean)²] = 2 sigma⁴.
  EXPECT_NEAR(m.var, 9.0, tol(2.0 * 81.0));
  // Shape: P(|z| < 1) = erf(1/√2) = 0.6827.
  int inside = 0;
  for (int i = 0; i < kMomentDraws; ++i)
    if (std::abs(rng.normal(0.0, 1.0)) < 1.0) ++inside;
  const double p = std::erf(1.0 / std::sqrt(2.0));
  EXPECT_NEAR(static_cast<double>(inside) / kMomentDraws, p, tol(p * (1 - p)));
}

TEST(RngTest, NormalZeroSigmaIsMean) {
  Rng rng(4), untouched(4);
  EXPECT_DOUBLE_EQ(rng.normal(7.0, 0.0), 7.0);
  EXPECT_EQ(rng.bits(), untouched.bits());  // drew nothing
  // Nor does it take a pending spare.
  EXPECT_EQ(rng.normal(0.0, 1.0), untouched.normal(0.0, 1.0));
  EXPECT_EQ(rng.normal(-1.0, 0.0), -1.0);
  EXPECT_EQ(rng.normal(0.0, 1.0), untouched.normal(0.0, 1.0));
  EXPECT_EQ(rng.bits(), untouched.bits());
}

TEST(RngTest, RayleighMeanPower) {
  // E[a²] = 2 sigma², E[a] = sigma √(π/2).
  Rng rng(5);
  const double sigma = 1.5;
  const Moments m = moments([&] {
    const double v = rng.rayleigh(sigma);
    EXPECT_GE(v, 0.0);
    return v;
  });
  const double var = (4.0 - std::numbers::pi) / 2.0 * sigma * sigma;
  EXPECT_NEAR(m.mean, sigma * std::sqrt(std::numbers::pi / 2.0), tol(var));
  EXPECT_NEAR(m.var + m.mean * m.mean, 2.0 * sigma * sigma,
              tol(4.0 * std::pow(sigma, 4)));  // Var[a²] = 4 sigma⁴
}

TEST(RngTest, ExponentialMean) {
  // Mean and standard deviation both equal the mean parameter.
  Rng rng(6);
  const Moments m = moments([&] {
    const double v = rng.exponential(4.0);
    EXPECT_GE(v, 0.0);
    return v;
  });
  EXPECT_NEAR(m.mean, 4.0, tol(16.0));
  EXPECT_NEAR(m.var, 16.0, tol(8.0 * 256.0));  // Var[(x - mean)²] = 8 mean⁴
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
  int hits = 0;
  for (int i = 0; i < kMomentDraws; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / kMomentDraws, 0.3, tol(0.3 * 0.7));
}

TEST(RngTest, ComplexNormalIsCircular) {
  Rng rng(9);
  Complex sum{};
  double power = 0.0, cross = 0.0;
  for (int i = 0; i < kMomentDraws; ++i) {
    const Complex v = rng.complex_normal(0.5);
    sum += v;
    power += std::norm(v);
    cross += v.real() * v.imag();
  }
  const double var = 0.25;
  EXPECT_NEAR(sum.real() / kMomentDraws, 0.0, tol(var));
  EXPECT_NEAR(sum.imag() / kMomentDraws, 0.0, tol(var));
  // E|v|² = 2 sigma², Var|v|² = 4 sigma⁴; the two parts are uncorrelated.
  EXPECT_NEAR(power / kMomentDraws, 2.0 * var, tol(4.0 * var * var));
  EXPECT_NEAR(cross / kMomentDraws, 0.0, tol(var * var));
}

TEST(RngTest, RandomPhaseUnitMagnitude) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i)
    EXPECT_NEAR(std::abs(rng.random_phase()), 1.0, 1e-12);
  // Uniform phase: E[cos] = E[sin] = 0, E[cos²] = 1/2.
  Complex sum{};
  double cos_sq = 0.0;
  for (int i = 0; i < kMomentDraws; ++i) {
    const Complex v = rng.random_phase();
    sum += v;
    cos_sq += v.real() * v.real();
  }
  EXPECT_NEAR(sum.real() / kMomentDraws, 0.0, tol(0.5));
  EXPECT_NEAR(sum.imag() / kMomentDraws, 0.0, tol(0.5));
  EXPECT_NEAR(cos_sq / kMomentDraws, 0.5, tol(0.125));  // Var[cos²] = 1/8
}

TEST(RngTest, PreconditionViolations) {
  Rng rng(12);
  EXPECT_THROW(rng.uniform(2.0, 1.0), PreconditionError);
  EXPECT_THROW(rng.uniform_int(2, 1), PreconditionError);
  EXPECT_THROW(rng.normal(0.0, -1.0), PreconditionError);
  EXPECT_THROW(rng.chance(1.5), PreconditionError);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
}

// Every scheduled AirFrame carries an Rng.
static_assert(sizeof(Rng) == 56);

TEST(RngTest, FillEqualsBitsCallsFromEveryPosition) {
  // Start 0-4 words into the stream: at a block boundary and inside one,
  // before and after the first refill.
  for (std::size_t skip = 0; skip <= 4; ++skip) {
    for (std::size_t n = 0; n <= 9; ++n) {
      Rng bulk(77), one(77);
      for (std::size_t i = 0; i < skip; ++i) {
        bulk.bits();
        one.bits();
      }
      std::vector<std::uint64_t> words(n + 1, 0);
      bulk.fill({words.data(), n});
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(words[i], one.bits()) << "skip " << skip << ", n " << n;
      EXPECT_EQ(words[n], 0u) << "wrote past the span";
      // The same stream position after.
      for (int i = 0; i < 5; ++i)
        ASSERT_EQ(bulk.bits(), one.bits()) << "skip " << skip << ", n " << n;
    }
  }
  // A long fill, through the vector kernel's whole blocks.
  Rng bulk(78), one(78);
  std::vector<std::uint64_t> words(1001);
  bulk.fill(words);
  for (const std::uint64_t w : words) ASSERT_EQ(w, one.bits());
  EXPECT_EQ(bulk.bits(), one.bits());
}

TEST(RngTest, DiscardSkipsTheWordsBitsWouldDraw) {
  for (std::size_t skip = 0; skip <= 4; ++skip) {
    for (std::uint64_t n = 0; n <= 9; ++n) {
      Rng skipped(79), drawn(79);
      for (std::size_t i = 0; i < skip; ++i) {
        skipped.bits();
        drawn.bits();
      }
      skipped.discard(n);
      for (std::uint64_t i = 0; i < n; ++i) drawn.bits();
      for (int i = 0; i < 5; ++i)
        ASSERT_EQ(skipped.bits(), drawn.bits())
            << "skip " << skip << ", n " << n;
    }
  }
}

TEST(RngTest, ComplexNormalsEqualComplexNormalCalls) {
  for (const bool spare : {false, true}) {
    for (const std::size_t n : {0u, 1u, 2u, 3u, 63u, 64u, 65u, 200u, 1016u}) {
      Rng bulk(90 + n), one(90 + n);
      if (spare) {  // a pending spare shifts every pair by one normal
        (void)bulk.normal(0.0, 1.0);
        (void)one.normal(0.0, 1.0);
      }
      std::vector<Complex> z(n);
      bulk.complex_normals(0.25, z);
      for (std::size_t k = 0; k < n; ++k) {
        const Complex want = one.complex_normal(0.25);
        ASSERT_EQ(double_bits(z[k].real()), double_bits(want.real()))
            << "spare " << spare << ", n " << n << ", k " << k;
        ASSERT_EQ(double_bits(z[k].imag()), double_bits(want.imag()))
            << "spare " << spare << ", n " << n << ", k " << k;
      }
      // The same spare and stream position after.
      EXPECT_EQ(bulk.normal(0.0, 1.0), one.normal(0.0, 1.0));
      EXPECT_EQ(bulk.bits(), one.bits());
    }
  }
  // Sigma 0 draws nothing and keeps the spare, like normal(mean, 0).
  Rng rng(5), untouched(5);
  (void)rng.normal(0.0, 1.0);
  (void)untouched.normal(0.0, 1.0);
  std::vector<Complex> z(3, Complex{1.0, 1.0});
  rng.complex_normals(0.0, z);
  for (const Complex& v : z) EXPECT_EQ(v, Complex{});
  EXPECT_EQ(rng.normal(0.0, 1.0), untouched.normal(0.0, 1.0));
  EXPECT_EQ(rng.bits(), untouched.bits());
}

TEST(RngTest, DistributionsIdenticalAtBothSimdLevels) {
  const simd::Level saved = simd::active_level();
  const auto draws = [] {
    Rng rng(2018);
    std::vector<double> v;
    for (int i = 0; i < 50; ++i) {
      v.push_back(rng.uniform(-2.0, 5.0));
      v.push_back(static_cast<double>(rng.uniform_int(-3, 1000)));
      v.push_back(rng.chance(0.5) ? 1.0 : 0.0);
      v.push_back(rng.normal(1.0, 2.0));
      v.push_back(rng.rayleigh(1.5));
      v.push_back(rng.exponential(4.0));
      const Complex p = rng.random_phase();
      const Complex z = rng.complex_normal(0.5);
      v.insert(v.end(), {p.real(), p.imag(), z.real(), z.imag()});
    }
    std::vector<Complex> z(77);
    rng.complex_normals(0.5, z);
    for (const Complex& c : z) v.insert(v.end(), {c.real(), c.imag()});
    std::vector<std::uint64_t> words(33);
    rng.fill(words);
    for (const std::uint64_t w : words) v.push_back(static_cast<double>(w));
    return v;
  };
  ASSERT_TRUE(simd::set_active_level(simd::Level::kScalar));
  const std::vector<double> scalar = draws();
  if (simd::set_active_level(simd::Level::kAvx2)) {
    const std::vector<double> avx2 = draws();
    ASSERT_EQ(scalar.size(), avx2.size());
    for (std::size_t i = 0; i < scalar.size(); ++i)
      ASSERT_EQ(double_bits(scalar[i]), double_bits(avx2[i])) << i;
  }
  simd::set_active_level(saved);
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
        ASSERT_EQ(derived.bits(), raw.bits()) << base << "/" << stream;
    }
  }
}

}  // namespace
}  // namespace uwb
