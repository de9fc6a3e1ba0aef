// Unit tests: FFT (radix-2 + Bluestein) and FFT upsampling.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <thread>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "common/random.hpp"
#include "dsp/fft.hpp"
#include "dsp/resample.hpp"

namespace uwb::dsp {
namespace {

CVec naive_dft(const CVec& x) {
  const std::size_t n = x.size();
  CVec out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k * j) /
                         static_cast<double>(n);
      acc += x[j] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

double max_err(const CVec& a, const CVec& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(FftTest, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(1016));
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(1016), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
  EXPECT_THROW(next_pow2(0), PreconditionError);
}

TEST(FftTest, ImpulseHasFlatSpectrum) {
  CVec x(16, Complex{});
  x[0] = 1.0;
  const CVec spec = fft(x);
  for (const auto& v : spec)
    EXPECT_NEAR(std::abs(v - Complex(1.0, 0.0)), 0.0, 1e-12);
}

TEST(FftTest, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  CVec x(n);
  const int bin = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double ang =
        2.0 * std::numbers::pi * bin * static_cast<double>(i) / n;
    x[i] = Complex(std::cos(ang), std::sin(ang));
  }
  const CVec spec = fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == bin)
      EXPECT_NEAR(std::abs(spec[k]), static_cast<double>(n), 1e-9);
    else
      EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-9);
  }
}

class FftLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftLengthTest, MatchesNaiveDft) {
  Rng rng(GetParam());
  CVec x(GetParam());
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  EXPECT_LT(max_err(fft(x), naive_dft(x)),
            1e-8 * static_cast<double>(x.size()));
}

TEST_P(FftLengthTest, RoundTrip) {
  Rng rng(GetParam() + 1000);
  CVec x(GetParam());
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  EXPECT_LT(max_err(ifft(fft(x)), x), 1e-9);
}

TEST_P(FftLengthTest, ParsevalHolds) {
  Rng rng(GetParam() + 2000);
  CVec x(GetParam());
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  double time_e = 0.0;
  for (const auto& v : x) time_e += std::norm(v);
  double freq_e = 0.0;
  for (const auto& v : fft(x)) freq_e += std::norm(v);
  EXPECT_NEAR(freq_e / static_cast<double>(x.size()), time_e,
              1e-8 * time_e + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftLengthTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 31, 64, 100, 127,
                                           128, 254, 508,
                                           static_cast<std::size_t>(
                                               uwb::k::cir_len_prf64)));

TEST(FftTest, EmptyInputThrows) {
  EXPECT_THROW(fft(CVec{}), PreconditionError);
  EXPECT_THROW(ifft(CVec{}), PreconditionError);
}

TEST(FftTest, NonPow2InplaceThrows) {
  CVec x(12, Complex{1.0, 0.0});
  EXPECT_THROW(fft_pow2_inplace(x, false), PreconditionError);
}

TEST(UpsampleTest, FactorOneIsIdentity) {
  CVec x{{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  EXPECT_EQ(upsample_fft(x, 1), x);
}

TEST(UpsampleTest, PreservesOriginalSamples) {
  Rng rng(77);
  CVec x(50);
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  for (int factor : {2, 4, 8}) {
    const CVec y = upsample_fft(x, factor);
    ASSERT_EQ(y.size(), x.size() * static_cast<std::size_t>(factor));
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_LT(std::abs(y[i * factor] - x[i]), 1e-9)
          << "factor " << factor << " sample " << i;
  }
}

TEST(UpsampleTest, InterpolatesBandlimitedSignalExactly) {
  // A tone below Nyquist/2 must be reconstructed exactly at the new grid.
  const std::size_t n = 64;
  const int factor = 4;
  const int bin = 3;
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang =
        2.0 * std::numbers::pi * bin * static_cast<double>(i) / n;
    x[i] = Complex(std::cos(ang), 0.0);
  }
  const CVec y = upsample_fft(x, factor);
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double t = static_cast<double>(i) / factor;
    const double expected = std::cos(2.0 * std::numbers::pi * bin * t / n);
    EXPECT_NEAR(y[i].real(), expected, 1e-9);
    EXPECT_NEAR(y[i].imag(), 0.0, 1e-9);
  }
}

TEST(UpsampleTest, RealInputStaysReal) {
  Rng rng(88);
  CVec x(uwb::k::cir_len_prf64);
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), 0.0};
  for (const auto& v : upsample_fft(x, 8)) EXPECT_NEAR(v.imag(), 0.0, 1e-9);
}

TEST(UpsampleTest, OddLengthWorks) {
  Rng rng(89);
  CVec x(33);
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const CVec y = upsample_fft(x, 3);
  ASSERT_EQ(y.size(), 99u);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_LT(std::abs(y[i * 3] - x[i]), 1e-9);
}

TEST(UpsampleTest, FoldedSpectrumGivesEveryFactorthSampleOfTheProduct) {
  // fold_spectrum is upsample_spectrum's adjoint: the inverse transform of
  // X * fold(T) at n points equals every factor-th sample of the inverse
  // transform of upsample(X) * T at n * factor points (up to the 1/n vs
  // 1/(n * factor) scaling of ifft). Odd n = 1, the even n's Nyquist
  // split, and factor 1, where the split halves are one bin, are the edge
  // cases.
  Rng rng(97);
  for (const std::size_t n : {1ul, 2ul, 16ul}) {
    for (const int factor : {1, 2, 8}) {
      const std::size_t m = n * static_cast<std::size_t>(factor);
      CVec x(n), t(m);
      for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      for (auto& v : t) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      CVec z(m);
      upsample_spectrum(x.data(), n, factor, z.data());
      for (std::size_t k = 0; k < m; ++k) z[k] *= t[k];
      CVec folded(n);
      fold_spectrum(t.data(), n, factor, folded.data());
      for (std::size_t k = 0; k < n; ++k) folded[k] *= x[k];
      const CVec wide = ifft(z);
      const CVec native = ifft(folded);
      for (std::size_t q = 0; q < n; ++q)
        EXPECT_LT(std::abs(wide[q * static_cast<std::size_t>(factor)] -
                           native[q] / static_cast<double>(factor)),
                  1e-12)
            << "n=" << n << " factor=" << factor << " q=" << q;
    }
  }
}

TEST(UpsampleTest, InvalidArgsThrow) {
  EXPECT_THROW(upsample_fft(CVec{}, 2), PreconditionError);
  EXPECT_THROW(upsample_fft(CVec{{1, 0}}, 0), PreconditionError);
}

// --- FftPlan vs an unplanned textbook reference ---------------------------
//
// The plan path precomputes twiddle tables, bit-reversal permutations, and
// Bluestein kernels; `reference_fft_pow2` below recomputes every twiddle
// with std::polar inside the butterfly loop (the pre-plan implementation).
// Agreement to ~1e-12 shows the tables are exact, not approximations.

CVec reference_fft_pow2(CVec x, bool inverse) {
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                       static_cast<double>(len);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Complex w = std::polar(1.0, ang * static_cast<double>(j));
        const Complex u = x[i + j];
        const Complex v = x[i + j + len / 2] * w;
        x[i + j] = u + v;
        x[i + j + len / 2] = u - v;
      }
    }
  }
  return x;
}

class PlanVsReferenceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlanVsReferenceTest, Pow2PlanMatchesUnplannedReference) {
  const std::size_t n = GetParam();
  Rng rng(n);
  CVec x(n);
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  for (const bool inverse : {false, true}) {
    CVec planned = x;
    plan_for(n).transform_pow2(planned.data(), inverse);
    EXPECT_LT(max_err(planned, reference_fft_pow2(x, inverse)),
              1e-12 * static_cast<double>(n))
        << "n=" << n << " inverse=" << inverse;
  }
}

INSTANTIATE_TEST_SUITE_P(Pow2Lengths, PlanVsReferenceTest,
                         ::testing::Values(2, 4, 8, 64, 1024, 8192, 16384));

TEST(FftPlanTest, BluesteinPlanMatchesNaiveDft) {
  // 1016 is the DW1000 PRF-64 CIR length — the Bluestein length that
  // matters. Also check a small prime for the general case.
  for (const std::size_t n : {11ul, 1016ul}) {
    Rng rng(n);
    CVec x(n);
    for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    CVec y(n);
    plan_for(n).transform(x.data(), y.data(), false);
    EXPECT_LT(max_err(y, naive_dft(x)), 1e-9 * static_cast<double>(n));
    // Inverse: unscaled conjugate transform; round trip recovers n * x.
    CVec back(n);
    plan_for(n).transform(y.data(), back.data(), true);
    for (auto& v : back) v /= static_cast<double>(n);
    EXPECT_LT(max_err(back, x), 1e-11);
  }
}

TEST(FftPlanTest, CacheHitsOnRepeatedLengths) {
  // plan_for builds each length once per process: every later lookup of
  // that length, on this thread or another, returns the same plan, and
  // clear_fft_plan_cache (a no-op) leaves it in place.
  const FftPlan& first = plan_for(512);
  EXPECT_EQ(first.size(), 512u);
  EXPECT_EQ(&plan_for(512), &first);
  clear_fft_plan_cache();
  EXPECT_EQ(&plan_for(512), &first);
  const FftPlan* from_other_thread = nullptr;
  std::thread([&from_other_thread] {
    from_other_thread = &plan_for(512);
  }).join();
  EXPECT_EQ(from_other_thread, &first);
  const FftPlan& other = plan_for(1016);
  EXPECT_NE(&other, &first);
  EXPECT_EQ(other.size(), 1016u);
  EXPECT_EQ(&plan_for(1016), &other);
}

}  // namespace
}  // namespace uwb::dsp
