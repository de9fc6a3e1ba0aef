// SIMD dispatch and equivalence tests (DESIGN.md §12): every vector level
// must reproduce the scalar reference — bit-identically for the elementwise
// kernels, to roundoff for the reductions — at sizes that do not divide the
// vector width, and the detection pipeline built on top must stay equivalent
// (and thread-count deterministic) at every forced level.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "dsp/fft.hpp"
#include "dw1000/cir.hpp"
#include "ranging/search_subtract.hpp"
#include "runner/monte_carlo.hpp"
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

TEST(SimdKernels, ArgmaxNormMatchesScalarAndBreaksTiesLow) {
  LevelGuard guard;
  for (const std::size_t n : kSizes) {
    auto y = random_doubles(31 * n, 2 * n);
    ASSERT_TRUE(simd::set_active_level(simd::Level::kScalar));
    const std::size_t ref = simd::argmax_norm(y.data(), n);
    for (const simd::Level level : supported_levels()) {
      ASSERT_TRUE(simd::set_active_level(level));
      EXPECT_EQ(simd::argmax_norm(y.data(), n), ref)
          << "level=" << simd::level_name(level) << " n=" << n;
    }
  }
}

TEST(SimdKernels, ArgmaxNormTiesResolveToLowestIndexEverywhere) {
  LevelGuard guard;
  // Duplicate maxima placed across different vector lanes and in the scalar
  // tail; every level must report the first occurrence.
  struct Case {
    std::size_t n;
    std::vector<std::size_t> max_at;
  };
  const Case cases[] = {
      {9, {1, 8}},   {12, {0, 3}},   {16, {2, 6, 14}},
      {17, {5, 16}}, {21, {19, 20}}, {4, {0, 1, 2, 3}},
  };
  for (const auto& c : cases) {
    std::vector<double> y(2 * c.n, 0.0);
    for (std::size_t j = 0; j < c.n; ++j) {
      y[2 * j] = 0.01 * static_cast<double>(j % 3);
      y[2 * j + 1] = 0.0;
    }
    for (const std::size_t j : c.max_at) {
      y[2 * j] = 3.0;
      y[2 * j + 1] = 4.0;  // |y|^2 = 25, the shared maximum
    }
    for (const simd::Level level : supported_levels()) {
      ASSERT_TRUE(simd::set_active_level(level));
      EXPECT_EQ(simd::argmax_norm(y.data(), c.n), c.max_at.front())
          << "level=" << simd::level_name(level) << " n=" << c.n;
    }
  }
  // Degenerate all-equal input: index 0 at every level.
  std::vector<double> flat(2 * 11, 0.5);
  for (const simd::Level level : supported_levels()) {
    ASSERT_TRUE(simd::set_active_level(level));
    EXPECT_EQ(simd::argmax_norm(flat.data(), 11), 0u)
        << "level=" << simd::level_name(level);
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
      dsp::clear_fft_plan_cache();  // plans are level-independent; rebuild anyway
      const CVec fwd = dsp::fft(x);
      const CVec inv = dsp::ifft(x);
      for (std::size_t k = 0; k < n; ++k) {
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
    ranging::SearchSubtractDetector fast{multi_shape_config()};
    ranging::DetectorConfig exact_cfg = multi_shape_config();
    exact_cfg.exact_recompute = true;
    ranging::SearchSubtractDetector exact{exact_cfg};
    for (std::uint64_t seed = 300; seed <= 305; ++seed) {
      const auto cir = random_cir(seed, 2, 5);
      const auto f = fast.detect(cir.taps, cir.ts_s, 6);
      const auto e = exact.detect(cir.taps, cir.ts_s, 6);
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
