// SIMD dispatch and equivalence tests (DESIGN.md §12): every vector level
// must reproduce the scalar reference — bit-identically for the elementwise
// kernels, to roundoff for the reductions — at sizes that do not divide the
// vector width, and the detection pipeline built on top must stay equivalent
// (and thread-count deterministic) at every forced level.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/constants.hpp"
#include "common/hash.hpp"
#include "common/random.hpp"
#include "dsp/fft.hpp"
#include "dw1000/cir.hpp"
#include "ranging/search_subtract.hpp"
#include "runner/monte_carlo.hpp"
#include "simd/math.hpp"
#include "simd/simd.hpp"

namespace uwb {
namespace {

// Sizes chosen to exercise every tail case: below, at, and off the 2- and
// 4-double vector widths, plus one large buffer.
constexpr std::size_t kSizes[] = {1, 2, 3, 5, 8, 17, 64, 1023};

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  if (simd::runtime_max_level() == simd::Level::kAvx2)
    levels.push_back(simd::Level::kAvx2);
  return levels;
}

// Restores the startup dispatch level when a test is done forcing levels.
struct LevelGuard {
  simd::Level saved = simd::active_level();
  ~LevelGuard() { simd::set_active_level(saved); }
};

std::vector<double> random_doubles(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<double> v(count);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

TEST(SimdDispatch, LevelNamesRoundTrip) {
  for (const simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    const auto parsed = simd::parse_level(simd::level_name(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(simd::parse_level("sse2").has_value());
  EXPECT_FALSE(simd::parse_level("avx512").has_value());
  EXPECT_FALSE(simd::parse_level("").has_value());
  EXPECT_FALSE(simd::parse_level("Scalar").has_value());
  const simd::Level max = simd::runtime_max_level();
  EXPECT_TRUE(max == simd::Level::kScalar || max == simd::Level::kAvx2);
}

TEST(SimdDispatch, SetActiveLevelSwitchesWithinRuntimeMax) {
  LevelGuard guard;
  for (const simd::Level level : supported_levels()) {
    ASSERT_TRUE(simd::set_active_level(level));
    EXPECT_EQ(simd::active_level(), level);
  }
}

TEST(SimdKernels, ElementwiseKernelsBitIdenticalAcrossLevels) {
  LevelGuard guard;
  for (const std::size_t n : kSizes) {
    const auto a = random_doubles(2 * n, 2 * n);
    const auto b = random_doubles(2 * n + 1, 2 * n);
    const double s = 0.37;

    struct Variant {
      const char* name;
      void (*run)(const double*, const double*, double, double*, std::size_t);
    };
    const Variant variants[] = {
        {"cmul",
         [](const double* x, const double* y, double, double* out,
            std::size_t m) { simd::cmul(x, y, out, m); }},
        {"cmul_conj",
         [](const double* x, const double* y, double, double* out,
            std::size_t m) { simd::cmul_conj(x, y, out, m); }},
        {"cmul_scaled", simd::cmul_scaled},
        {"cmul_conj_scaled", simd::cmul_conj_scaled},
        {"scale",
         [](const double* x, const double*, double sc, double* out,
            std::size_t m) {
           std::copy(x, x + 2 * m, out);
           simd::scale(out, sc, m);
         }},
        {"copy_scaled",
         [](const double* x, const double*, double sc, double* out,
            std::size_t m) { simd::copy_scaled(x, sc, out, m); }},
    };

    for (const auto& variant : variants) {
      ASSERT_TRUE(simd::set_active_level(simd::Level::kScalar));
      std::vector<double> ref(2 * n);
      variant.run(a.data(), b.data(), s, ref.data(), n);
      for (const simd::Level level : supported_levels()) {
        ASSERT_TRUE(simd::set_active_level(level));
        std::vector<double> out(2 * n);
        variant.run(a.data(), b.data(), s, out.data(), n);
        for (std::size_t k = 0; k < 2 * n; ++k)
          ASSERT_EQ(out[k], ref[k])
              << variant.name << " level=" << simd::level_name(level)
              << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(SimdKernels, ButterflyPairsBitIdenticalAcrossLevels) {
  LevelGuard guard;
  for (const std::size_t n : {2ul, 4ul, 6ul, 34ul, 1024ul}) {
    const auto input = random_doubles(7 * n, 2 * n);
    ASSERT_TRUE(simd::set_active_level(simd::Level::kScalar));
    auto ref = input;
    simd::butterfly_pairs(ref.data(), n);
    for (const simd::Level level : supported_levels()) {
      ASSERT_TRUE(simd::set_active_level(level));
      auto out = input;
      simd::butterfly_pairs(out.data(), n);
      for (std::size_t k = 0; k < 2 * n; ++k)
        ASSERT_EQ(out[k], ref[k])
            << "level=" << simd::level_name(level) << " n=" << n << " k=" << k;
    }
  }
}

TEST(SimdKernels, FftStageBitIdenticalAcrossLevels) {
  LevelGuard guard;
  for (const std::size_t len : {8ul, 16ul}) {
    const std::size_t n = 4 * len;
    std::vector<double> w(len);  // len/2 interleaved twiddles
    for (std::size_t j = 0; j < len / 2; ++j) {
      const double ang =
          -2.0 * 3.14159265358979323846 * static_cast<double>(j) /
          static_cast<double>(len);
      w[2 * j] = std::cos(ang);
      w[2 * j + 1] = std::sin(ang);
    }
    const auto input = random_doubles(len, 2 * n);
    for (const bool inverse : {false, true}) {
      ASSERT_TRUE(simd::set_active_level(simd::Level::kScalar));
      auto ref = input;
      simd::fft_stage(ref.data(), w.data(), n, len, inverse);
      for (const simd::Level level : supported_levels()) {
        ASSERT_TRUE(simd::set_active_level(level));
        auto out = input;
        simd::fft_stage(out.data(), w.data(), n, len, inverse);
        for (std::size_t k = 0; k < 2 * n; ++k)
          ASSERT_EQ(out[k], ref[k])
              << "level=" << simd::level_name(level) << " len=" << len
              << " inverse=" << inverse << " k=" << k;
      }
    }
  }
}

TEST(SimdKernels, NormsMaxAndIndicesAtLeastMatchTheScalarScan) {
  // The peak pick's candidate scan: p bit-equal to std::norm, the maximum
  // of p, and the ascending indices with !(p < cut) — with entries tied
  // exactly at the cut, at every length up to 1 031 (every tail of the
  // 4- and 8-wide vector loops) and on all-zero input.
  LevelGuard guard;
  const Complex tie{0.6, 0.8};
  const double tie_norm = std::norm(tie);
  for (std::size_t n = 1; n <= 1031; ++n) {
    auto y = random_doubles(61 + n, 2 * n);
    for (std::size_t k = n % 3; k < n; k += 5) {
      y[2 * k] = tie.real();
      y[2 * k + 1] = tie.imag();
    }
    std::vector<double> want_p(n);
    double want_max = 0.0;
    std::vector<std::size_t> want_idx, want_all;
    for (std::size_t k = 0; k < n; ++k) {
      want_p[k] = std::norm(Complex(y[2 * k], y[2 * k + 1]));
      want_max = std::max(want_max, want_p[k]);
      if (!(want_p[k] < tie_norm)) want_idx.push_back(k);
      want_all.push_back(k);
    }
    const std::vector<double> zeros(2 * n, 0.0);
    for (const simd::Level level : supported_levels()) {
      ASSERT_TRUE(simd::set_active_level(level));
      std::vector<double> p(n);
      std::vector<std::size_t> idx(n);
      EXPECT_EQ(double_bits(simd::norms_max(y.data(), n, p.data())),
                double_bits(want_max))
          << "level=" << simd::level_name(level) << " n=" << n;
      EXPECT_EQ(std::memcmp(p.data(), want_p.data(), n * sizeof(double)), 0)
          << "level=" << simd::level_name(level) << " n=" << n;
      idx.resize(simd::indices_at_least(p.data(), n, tie_norm, idx.data()));
      EXPECT_EQ(idx, want_idx)
          << "level=" << simd::level_name(level) << " n=" << n;
      idx.assign(n, 0);
      EXPECT_EQ(simd::indices_at_least(p.data(), n, want_max * 2.0 + 1.0,
                                       idx.data()),
                0u)
          << "level=" << simd::level_name(level) << " n=" << n;

      EXPECT_EQ(double_bits(simd::norms_max(zeros.data(), n, p.data())),
                double_bits(0.0))
          << "level=" << simd::level_name(level) << " n=" << n;
      idx.resize(simd::indices_at_least(p.data(), n, 0.0, idx.data()));
      EXPECT_EQ(idx, want_all)
          << "level=" << simd::level_name(level) << " n=" << n;
    }
  }
}

TEST(SimdKernels, CorrRealLagsEqualCdotConjBitForBit) {
  // Each lag of corr_real_lags must equal cdot_conj of the same level bit
  // for bit when the template is real: over template lengths around the
  // detector's (73-193 samples at x8), every lag count of a block and its
  // remainders, and residuals holding exact +0, -0 and mixed signs, where
  // the ±0 products cdot_conj adds on top could show.
  LevelGuard guard;
  constexpr std::size_t kMaxLags = 16;
  for (const std::size_t n : {1, 2, 3, 7, 73, 127, 151, 185, 193}) {
    for (const double imag_zero : {0.0, -0.0}) {
      auto s = random_doubles(71 + n, 2 * n);
      for (std::size_t m = 0; m < n; ++m) {
        if (m % 9 == 4) s[2 * m] = m % 2 == 0 ? 0.0 : -0.0;
        s[2 * m + 1] = imag_zero;
      }
      const std::size_t len = n + kMaxLags - 1;
      auto mixed = random_doubles(73 + n, 2 * len);
      for (std::size_t p = 0; p < 2 * len; ++p) {
        if (p % 7 == 0) mixed[p] = 0.0;
        if (p % 11 == 3) mixed[p] = -0.0;
      }
      std::vector<double> neg_zero(2 * len, -0.0);
      std::vector<double> signed_zeros(2 * len);
      for (std::size_t p = 0; p < 2 * len; ++p)
        signed_zeros[p] = p % 3 == 0 ? 0.0 : -0.0;
      const std::vector<double>* residuals[] = {&mixed, &neg_zero,
                                                &signed_zeros};
      for (std::size_t v = 0; v < 3; ++v) {
        const std::vector<double>* r = residuals[v];
        for (const simd::Level level : supported_levels()) {
          ASSERT_TRUE(simd::set_active_level(level));
          for (std::size_t lags = 1; lags <= kMaxLags; ++lags) {
            std::vector<double> y(2 * lags), want(2 * lags);
            simd::corr_real_lags(r->data(), s.data(), n, lags, y.data());
            for (std::size_t k = 0; k < lags; ++k)
              simd::cdot_conj(r->data() + 2 * k, s.data(), n, &want[2 * k],
                              &want[2 * k + 1]);
            EXPECT_EQ(std::memcmp(y.data(), want.data(),
                                  y.size() * sizeof(double)),
                      0)
                << "level=" << simd::level_name(level) << " n=" << n
                << " lags=" << lags << " imag=" << imag_zero
                << " residual=" << v;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, ReductionsMatchScalarToRoundoff) {
  LevelGuard guard;
  for (const std::size_t n : kSizes) {
    const auto a = random_doubles(41 * n, 2 * n);
    const auto b = random_doubles(43 * n, 2 * n);
    ASSERT_TRUE(simd::set_active_level(simd::Level::kScalar));
    double ref_re = 0.0, ref_im = 0.0;
    simd::cdot_conj(a.data(), b.data(), n, &ref_re, &ref_im);
    const double bound =
        1e-13 * (1.0 + static_cast<double>(n));  // generous roundoff budget
    for (const simd::Level level : supported_levels()) {
      ASSERT_TRUE(simd::set_active_level(level));
      double re = 0.0, im = 0.0;
      simd::cdot_conj(a.data(), b.data(), n, &re, &im);
      EXPECT_NEAR(re, ref_re, bound)
          << "level=" << simd::level_name(level) << " n=" << n;
      EXPECT_NEAR(im, ref_im, bound)
          << "level=" << simd::level_name(level) << " n=" << n;
    }
  }
}

TEST(SimdKernels, StridedWindowUpdateMatchesDirectSum) {
  // corr_window_update at output stride s patches y[k], the correlation at
  // residual position j = k * s, by the windowed delta sum; the detector
  // runs it at the upsample factor over the native-rate outputs.
  LevelGuard guard;
  constexpr std::ptrdiff_t kNp = 37;
  const auto d = random_doubles(51, 2 * 45);  // waveform over [w_lo, w_hi)
  const auto s = random_doubles(53, 2 * kNp);
  const std::ptrdiff_t w_lo = 100, w_hi = 145;
  for (const std::ptrdiff_t stride : {1, 3, 8}) {
    const std::ptrdiff_t k_lo = (w_lo - kNp + 1 + stride - 1) / stride;
    const std::ptrdiff_t k_hi = (w_hi + stride - 1) / stride;
    const auto y0 = random_doubles(55, 2 * static_cast<std::size_t>(k_hi));
    std::vector<double> want = y0;
    for (std::ptrdiff_t k = k_lo; k < k_hi; ++k) {
      const std::ptrdiff_t j = k * stride;
      for (std::ptrdiff_t p = std::max(w_lo, j); p < std::min(w_hi, j + kNp);
           ++p) {
        const double dr = d[2 * (p - w_lo)], di = d[2 * (p - w_lo) + 1];
        const double sr = s[2 * (p - j)], si = s[2 * (p - j) + 1];
        want[2 * k] -= dr * sr + di * si;
        want[2 * k + 1] -= di * sr - dr * si;
      }
    }
    for (const simd::Level level : supported_levels()) {
      ASSERT_TRUE(simd::set_active_level(level));
      std::vector<double> y = y0;
      simd::corr_window_update(y.data(), d.data(), s.data(), k_lo, k_hi,
                               stride, w_lo, w_hi, kNp);
      for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y[i], want[i], 1e-12)
            << "level=" << simd::level_name(level) << " stride=" << stride
            << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Real-valued math kernels (DESIGN.md §12.2): bit-identical across levels
// over a million arguments each, domain edges included, and within 2 ulp of
// the long-double libm over every domain a caller uses.

/// `count` doubles uniform in [lo, hi], then the edges and their
/// neighbours inside the domain.
std::vector<double> arguments(std::uint64_t seed, std::size_t count, double lo,
                              double hi) {
  Rng rng(seed);
  std::vector<double> x(count);
  for (auto& v : x) v = rng.uniform(lo, hi);
  for (const double edge : {lo, hi}) {
    x.push_back(edge);
    x.push_back(std::nextafter(edge, 0.5 * (lo + hi)));
  }
  return x;
}

/// Positive normal doubles 2^e·m with e uniform in [e_lo, e_hi), then the
/// smallest normal, 1e-300 (Rng::rayleigh's floor), the largest double
/// below 1, 1 and the largest double.
std::vector<double> log_arguments(std::uint64_t seed, std::size_t count,
                                  int e_lo, int e_hi) {
  Rng rng(seed);
  std::vector<double> x(count);
  for (auto& v : x)
    v = std::ldexp(rng.uniform(0.5, 1.0),
                   static_cast<int>(rng.uniform_int(e_lo, e_hi - 1)));
  for (const double edge :
       {0x1p-1022, 1e-300, 0x1p-104, std::nextafter(1.0, 0.0), 1.0,
        std::numeric_limits<double>::max()})
    x.push_back(edge);
  return x;
}

/// |computed − reference| in units of the ulp of the reference rounded to
/// double (the ulp below a power of two counts as the one above it).
double ulp_error(double computed, long double reference) {
  const double rounded = static_cast<double>(reference);
  if (rounded == 0.0) return computed == 0.0 ? 0.0 : HUGE_VAL;
  int exponent = 0;
  std::frexp(rounded, &exponent);
  const long double ulp = std::ldexp(1.0L, exponent - 53);
  return static_cast<double>(
      std::fabs(static_cast<long double>(computed) - reference) / ulp);
}

std::vector<double> at_level(simd::Level level,
                             void (*kernel)(const double*, double*,
                                            std::size_t),
                             const std::vector<double>& x) {
  EXPECT_TRUE(simd::set_active_level(level));
  std::vector<double> y(x.size());
  kernel(x.data(), y.data(), x.size());
  return y;
}

constexpr std::size_t kMathArgs = 1'000'000;

TEST(SimdMath, KernelsBitIdenticalAcrossLevelsAndToTheScalarForms) {
  LevelGuard guard;
  const auto exp_args = arguments(1, kMathArgs, -708.0, 708.0);
  const auto log_args = log_arguments(2, kMathArgs, -1021, 1024);
  const auto trig_args = arguments(3, kMathArgs, -1024.0, 1024.0);
  for (const simd::Level level : supported_levels()) {
    const auto ex = at_level(level, simd::exp, exp_args);
    const auto lg = at_level(level, simd::log, log_args);
    std::vector<double> sn(trig_args.size()), cs(trig_args.size());
    simd::sincos(trig_args.data(), sn.data(), cs.data(), trig_args.size());
    for (std::size_t i = 0; i < exp_args.size(); ++i)
      ASSERT_EQ(double_bits(ex[i]), double_bits(simd::exp(exp_args[i])))
          << simd::level_name(level) << " exp(" << exp_args[i] << ")";
    for (std::size_t i = 0; i < log_args.size(); ++i)
      ASSERT_EQ(double_bits(lg[i]), double_bits(simd::log(log_args[i])))
          << simd::level_name(level) << " log(" << log_args[i] << ")";
    for (std::size_t i = 0; i < trig_args.size(); ++i) {
      double s = 0.0, c = 0.0;
      simd::sincos(trig_args[i], &s, &c);
      ASSERT_EQ(double_bits(sn[i]), double_bits(s))
          << simd::level_name(level) << " sin(" << trig_args[i] << ")";
      ASSERT_EQ(double_bits(cs[i]), double_bits(c))
          << simd::level_name(level) << " cos(" << trig_args[i] << ")";
    }
  }
  // Every length below and around the vector width, in place.
  for (const simd::Level level : supported_levels()) {
    ASSERT_TRUE(simd::set_active_level(level));
    for (std::size_t n = 0; n <= 9; ++n) {
      std::vector<double> x(exp_args.begin(), exp_args.begin() + n);
      simd::exp(x.data(), x.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(double_bits(x[i]), double_bits(simd::exp(exp_args[i])));
    }
  }
}

TEST(SimdMath, WithinTwoUlpOfLongDoubleLibm) {
  struct Domain {
    const char* name;
    std::vector<double> x;
  };
  double worst_exp = 0.0, worst_log = 0.0, worst_sin = 0.0, worst_cos = 0.0;
  // exp: the render's pulse start values, the tail's power profile, and
  // the documented domain.
  for (const Domain& d :
       {Domain{"render", arguments(4, kMathArgs, -120.0, 32.0)},
        Domain{"tail", arguments(5, kMathArgs, -10.0, 0.0)},
        Domain{"domain", arguments(6, kMathArgs, -708.0, 708.0)}}) {
    double worst = 0.0;
    for (const double x : d.x)
      worst = std::max(worst, ulp_error(simd::exp(x),
                                        std::exp(static_cast<long double>(x))));
    EXPECT_LE(worst, 2.0) << "exp over the " << d.name << " range";
    worst_exp = std::max(worst_exp, worst);
  }
  // log: the polar method's s in [2^-104, 1), and every positive normal.
  for (const Domain& d :
       {Domain{"polar", log_arguments(7, kMathArgs, -103, 0)},
        Domain{"domain", log_arguments(8, kMathArgs, -1021, 1024)}}) {
    double worst = 0.0;
    for (const double x : d.x)
      worst = std::max(worst, ulp_error(simd::log(x),
                                        std::log(static_cast<long double>(x))));
    EXPECT_LE(worst, 2.0) << "log over the " << d.name << " range";
    worst_log = std::max(worst_log, worst);
  }
  // sincos: the render's carrier phases and the phase draws (|x| <= 32),
  // the documented domain, and the doubles nearest every multiple of pi/2
  // in it, where the reduction cancels most.
  std::vector<double> near_multiples;
  const long double half_pi = 1.570796326794896619231321691639751442L;
  for (int m = 1; m * half_pi <= 1024.0L; ++m) {
    double x = static_cast<double>(m * half_pi);
    x = std::nextafter(std::nextafter(x, 0.0), 0.0);
    for (int step = 0; step < 5; ++step, x = std::nextafter(x, 2048.0)) {
      near_multiples.push_back(x);
      near_multiples.push_back(-x);
    }
  }
  for (const Domain& d :
       {Domain{"phase", arguments(9, kMathArgs, -32.0, 32.0)},
        Domain{"domain", arguments(10, kMathArgs, -1024.0, 1024.0)},
        Domain{"near k*pi/2", near_multiples}}) {
    double worst_s = 0.0, worst_c = 0.0;
    for (const double x : d.x) {
      double s = 0.0, c = 0.0;
      simd::sincos(x, &s, &c);
      const auto lx = static_cast<long double>(x);
      worst_s = std::max(worst_s, ulp_error(s, std::sin(lx)));
      worst_c = std::max(worst_c, ulp_error(c, std::cos(lx)));
    }
    EXPECT_LE(worst_s, 2.0) << "sin over the " << d.name << " range";
    EXPECT_LE(worst_c, 2.0) << "cos over the " << d.name << " range";
    worst_sin = std::max(worst_sin, worst_s);
    worst_cos = std::max(worst_cos, worst_c);
  }
  std::printf("max ulp error: exp %.3f, log %.3f, sin %.3f, cos %.3f\n",
              worst_exp, worst_log, worst_sin, worst_cos);
  ::testing::Test::RecordProperty("max_ulp_exp", std::to_string(worst_exp));
  ::testing::Test::RecordProperty("max_ulp_log", std::to_string(worst_log));
  ::testing::Test::RecordProperty("max_ulp_sin", std::to_string(worst_sin));
  ::testing::Test::RecordProperty("max_ulp_cos", std::to_string(worst_cos));
}

TEST(SimdMath, PulseStepsBitIdenticalAcrossLevelsAndToOneLaneAtATime) {
  LevelGuard guard;
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    std::array<double, 24> state;
    for (auto& x : state) x = rng.uniform(-1.5, 1.5);
    const double step[5] = {rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0),
                            std::cos(0.4), std::sin(0.4), 0.25};
    const auto steps = static_cast<std::size_t>(rng.uniform_int(0, 40));
    // One lane at a time, as PulseStepper::step runs it.
    std::vector<double> want(4 * steps);
    for (std::size_t l = 0; l < 4; ++l) {
      double g = state[l], r = state[4 + l], h = state[8 + l];
      double q = state[12 + l], c = state[16 + l], s = state[20 + l];
      for (std::size_t m = 0; m < steps; ++m) {
        want[4 * m + l] = g * c - step[4] * h;
        g *= r;
        r *= step[0];
        h *= q;
        q *= step[1];
        const double next_c = c * step[2] - s * step[3];
        s = s * step[2] + c * step[3];
        c = next_c;
      }
    }
    for (const simd::Level level : supported_levels()) {
      ASSERT_TRUE(simd::set_active_level(level));
      std::vector<double> v(4 * steps + 1, 7.0);
      simd::pulse_steps4(state.data(), step, steps, v.data());
      for (std::size_t i = 0; i < 4 * steps; ++i)
        ASSERT_EQ(double_bits(v[i]), double_bits(want[i]))
            << simd::level_name(level) << " value " << i;
      EXPECT_EQ(v[4 * steps], 7.0) << "wrote past the end";
    }
  }
}

TEST(SimdPhilox, BulkBlocksEqualTheScalarBlock) {
  LevelGuard guard;
  Rng keys(11);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cases;  // key, counter
  for (int i = 0; i < 64; ++i) cases.emplace_back(keys.bits(), keys.bits());
  for (const std::uint64_t counter :
       {0ull, 0xfffffffdull, 0xffffffffull, 0x1fffffffeull, ~0ull - 2})
    cases.emplace_back(keys.bits(), counter);  // across the 2^32 carry
  for (const simd::Level level : supported_levels()) {
    ASSERT_TRUE(simd::set_active_level(level));
    for (const auto& [key, counter] : cases) {
      for (std::size_t blocks = 0; blocks <= 13; ++blocks) {
        std::vector<std::uint64_t> out(2 * blocks + 1, 0x5a5a5a5a5a5a5a5aull);
        simd::philox4x32_10(key, counter, out.data(), blocks);
        for (std::size_t b = 0; b < blocks; ++b) {
          const std::uint64_t c = counter + b;
          const auto x =
              simd::philox4x32_10({static_cast<std::uint32_t>(c),
                                   static_cast<std::uint32_t>(c >> 32), 0, 0},
                                  {static_cast<std::uint32_t>(key),
                                   static_cast<std::uint32_t>(key >> 32)});
          ASSERT_EQ(out[2 * b], x[0] | (std::uint64_t{x[1]} << 32))
              << simd::level_name(level) << " block " << b;
          ASSERT_EQ(out[2 * b + 1], x[2] | (std::uint64_t{x[3]} << 32))
              << simd::level_name(level) << " block " << b;
        }
        EXPECT_EQ(out[2 * blocks], 0x5a5a5a5a5a5a5a5aull)
            << "wrote past the end";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Transform-level equivalence: the FFT uses only elementwise kernels, so its
// output must be bit-identical across levels — including the Bluestein path
// for odd and otherwise awkward lengths.

TEST(SimdFft, TransformsBitIdenticalAcrossLevels) {
  LevelGuard guard;
  // Pow2, odd primes, odd composite, even non-pow2 (the CIR tap count 1016).
  for (const std::size_t n :
       {1ul, 2ul, 4ul, 8ul, 1024ul, 3ul, 7ul, 127ul, 225ul, 1000ul, 1016ul}) {
    Rng rng(500 + n);
    CVec x(n);
    for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    ASSERT_TRUE(simd::set_active_level(simd::Level::kScalar));
    const CVec ref_fwd = dsp::fft(x);
    const CVec ref_inv = dsp::ifft(x);
    for (const simd::Level level : supported_levels()) {
      ASSERT_TRUE(simd::set_active_level(level));
      const CVec fwd = dsp::fft(x);
      const CVec inv = dsp::ifft(x);
      // The shared plans were built at whichever level ran first; a plan
      // built at this level must transform alike.
      CVec fresh(n);
      dsp::FftPlan(n).transform(x.data(), fresh.data(), false);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(fresh[k], ref_fwd[k])
            << "fresh plan level=" << simd::level_name(level) << " n=" << n;
        ASSERT_EQ(fwd[k].real(), ref_fwd[k].real())
            << "fwd level=" << simd::level_name(level) << " n=" << n;
        ASSERT_EQ(fwd[k].imag(), ref_fwd[k].imag())
            << "fwd level=" << simd::level_name(level) << " n=" << n;
        ASSERT_EQ(inv[k].real(), ref_inv[k].real())
            << "inv level=" << simd::level_name(level) << " n=" << n;
        ASSERT_EQ(inv[k].imag(), ref_inv[k].imag())
            << "inv level=" << simd::level_name(level) << " n=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Detector-level equivalence under forced levels.

constexpr std::uint8_t kShapeBank[] = {0x93, 0xB5, 0xE6};

dw::CirEstimate random_cir(std::uint64_t seed, int min_arrivals,
                           int max_arrivals) {
  Rng rng(seed);
  const auto n = static_cast<int>(rng.uniform_int(min_arrivals, max_arrivals));
  std::vector<dw::CirArrival> arrivals;
  double pos = rng.uniform(40.0, 120.0);
  for (int i = 0; i < n; ++i) {
    dw::CirArrival a;
    a.time_into_window_s = pos * k::cir_ts_s;
    a.amplitude = Complex(rng.uniform(0.1, 0.7), 0.0) * rng.random_phase();
    a.tc_pgdelay =
        kShapeBank[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    arrivals.push_back(a);
    pos += rng.uniform(6.0, 180.0);
  }
  dw::CirParams params;
  params.noise_sigma = 0.004;
  return dw::synthesize_cir(arrivals, params, rng);
}

ranging::DetectorConfig multi_shape_config() {
  ranging::DetectorConfig cfg;
  cfg.shape_registers.assign(std::begin(kShapeBank), std::end(kShapeBank));
  return cfg;
}

TEST(SimdDetector, FastPathMatchesExactAtEveryLevel) {
  LevelGuard guard;
  for (const simd::Level level : supported_levels()) {
    ASSERT_TRUE(simd::set_active_level(level));
    const ranging::SearchSubtractDetector det{multi_shape_config()};
    for (std::uint64_t seed = 300; seed <= 305; ++seed) {
      const auto cir = random_cir(seed, 2, 5);
      const auto f = det.detect(cir.taps, cir.ts_s, 6);
      // Tracing runs the exact path.
      const auto e = det.detect_with_trace(cir.taps, cir.ts_s, 6).responses;
      ASSERT_EQ(f.size(), e.size())
          << "level=" << simd::level_name(level) << " seed=" << seed;
      for (std::size_t i = 0; i < f.size(); ++i) {
        EXPECT_EQ(f[i].shape_index, e[i].shape_index);
        EXPECT_NEAR(f[i].index_upsampled, e[i].index_upsampled, 1e-6);
        EXPECT_NEAR(std::abs(f[i].amplitude - e[i].amplitude), 0.0, 1e-9);
      }
    }
  }
}

TEST(SimdDetector, McDetectionBitIdenticalAcrossThreadCountsAtEveryLevel) {
  // The derive_seed contract under SIMD: with the level fixed, Monte-Carlo
  // detection is bitwise identical at any thread count. Worker threads
  // inherit the process-global dispatch table.
  LevelGuard guard;
  for (const simd::Level level : supported_levels()) {
    ASSERT_TRUE(simd::set_active_level(level));
    const auto run = [](int threads) {
      runner::MonteCarlo::Config cfg;
      cfg.threads = threads;
      cfg.base_seed = 77;
      return runner::MonteCarlo(cfg).run(
          16, [](const runner::TrialContext& ctx, runner::TrialRecorder& rec) {
            const auto cir = random_cir(ctx.seed, 1, 4);
            ranging::SearchSubtractDetector det{multi_shape_config()};
            const auto found = det.detect(cir.taps, cir.ts_s, 5);
            rec.count("responses", static_cast<std::int64_t>(found.size()));
            for (const auto& r : found) {
              rec.sample("tau_s", r.tau_s);
              rec.sample("amp", std::abs(r.amplitude));
            }
          });
    };
    const auto serial = run(1);
    const auto parallel = run(4);
    EXPECT_EQ(serial.counter("responses"), parallel.counter("responses"))
        << "level=" << simd::level_name(level);
    ASSERT_EQ(serial.metric_names(), parallel.metric_names());
    for (const auto& name : serial.metric_names()) {
      const RVec& a = serial.samples(name);
      const RVec& b = parallel.samples(name);
      ASSERT_EQ(a.size(), b.size()) << name;
      for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i])
            << "level=" << simd::level_name(level) << " " << name << "[" << i
            << "]";
    }
  }
}

}  // namespace
}  // namespace uwb
