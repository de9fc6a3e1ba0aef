// Unit tests: signal helpers, matched filter, peak search, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/expects.hpp"
#include "common/random.hpp"
#include "dsp/matched_filter.hpp"
#include "dsp/peaks.hpp"
#include "dsp/signal.hpp"
#include "dsp/stats.hpp"

namespace uwb::dsp {
namespace {

TEST(SignalTest, MagnitudeAndEnergy) {
  const CVec x{{3.0, 4.0}, {0.0, 1.0}};
  const RVec m = magnitude(x);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m[0], 5.0);
  EXPECT_DOUBLE_EQ(m[1], 1.0);
  EXPECT_DOUBLE_EQ(energy(x), 26.0);
}

TEST(SignalTest, NormalizeEnergy) {
  CVec x{{2.0, 0.0}, {0.0, 2.0}};
  const CVec y = normalize_energy(x);
  EXPECT_NEAR(energy(y), 1.0, 1e-12);
  // Zero signal unchanged.
  const CVec z(4, Complex{});
  EXPECT_EQ(normalize_energy(z), z);
}

TEST(SignalTest, SampleAtInterpolates) {
  const CVec x{{0.0, 0.0}, {2.0, 0.0}, {4.0, 0.0}};
  EXPECT_DOUBLE_EQ(sample_at(x, 0.5).real(), 1.0);
  EXPECT_DOUBLE_EQ(sample_at(x, 1.75).real(), 3.5);
  // Clamped outside the range.
  EXPECT_DOUBLE_EQ(sample_at(x, -1.0).real(), 0.0);
  EXPECT_DOUBLE_EQ(sample_at(x, 99.0).real(), 4.0);
  EXPECT_THROW(sample_at(CVec{}, 0.0), PreconditionError);
}

TEST(MatchedFilterTest, NormalisesTemplate) {
  MatchedFilter mf(CVec{{3.0, 0.0}, {4.0, 0.0}});
  EXPECT_NEAR(energy(mf.unit_template()), 1.0, 1e-12);
}

TEST(MatchedFilterTest, PeakAtTemplateStart) {
  // Signal = template placed at index 10; correlation must peak exactly there.
  const CVec tmpl{{1.0, 0.0}, {2.0, 0.0}, {1.0, 0.0}};
  CVec r(64, Complex{});
  std::copy(tmpl.begin(), tmpl.end(), r.begin() + 10);
  MatchedFilter mf(tmpl);
  const CVec y = mf.apply(r);
  ASSERT_EQ(y.size(), r.size());
  EXPECT_EQ(argmax_abs(y), 10u);
  // Peak value = ||s|| for a unit-placed raw template.
  EXPECT_NEAR(std::abs(y[10]), std::sqrt(6.0), 1e-9);
}

TEST(MatchedFilterTest, ComplexAmplitudeRecovered) {
  const CVec tmpl{{1.0, 0.0}, {2.0, 0.0}, {1.0, 0.0}};
  const Complex amp{0.3, -0.7};
  CVec r(32, Complex{});
  for (std::size_t i = 0; i < tmpl.size(); ++i) r[5 + i] = amp * tmpl[i];
  MatchedFilter mf(tmpl);
  const CVec y = mf.apply(r);
  // y[peak] / ||s|| = amplitude.
  const Complex est = y[5] / std::sqrt(6.0);
  EXPECT_NEAR(std::abs(est - amp), 0.0, 1e-9);
}

TEST(MatchedFilterTest, FftPathMatchesDirect) {
  Rng rng(5);
  CVec tmpl(40);
  for (auto& v : tmpl) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  CVec r(2048);  // large enough to trigger the FFT path
  for (auto& v : r) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  MatchedFilter mf(tmpl);
  const CVec fast = mf.apply(r);
  const CVec direct = correlate_direct(r, mf.unit_template());
  ASSERT_EQ(fast.size(), direct.size());
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_LT(std::abs(fast[i] - direct[i]), 1e-9) << "at " << i;
}

TEST(MatchedFilterTest, RepeatedApplyReusesCache) {
  Rng rng(6);
  CVec tmpl(16);
  for (auto& v : tmpl) v = {rng.uniform(-1.0, 1.0), 0.0};
  MatchedFilter mf(tmpl);
  CVec r(4096);
  for (auto& v : r) v = {rng.uniform(-1.0, 1.0), 0.0};
  const CVec y1 = mf.apply(r);
  const CVec y2 = mf.apply(r);
  for (std::size_t i = 0; i < y1.size(); ++i)
    EXPECT_EQ(y1[i], y2[i]);
}

TEST(MatchedFilterTest, EmptyInputsThrow) {
  EXPECT_THROW(MatchedFilter(CVec{}), PreconditionError);
  MatchedFilter mf(CVec{{1.0, 0.0}});
  EXPECT_THROW(mf.apply(CVec{}), PreconditionError);
}

TEST(PeaksTest, ArgmaxAbs) {
  const CVec x{{1.0, 0.0}, {0.0, -5.0}, {2.0, 0.0}};
  EXPECT_EQ(argmax_abs(x), 1u);
  EXPECT_THROW(argmax_abs(CVec{}), PreconditionError);
}

TEST(PeaksTest, LocalMaximaRespectsThresholdAndDistance) {
  CVec x(50, Complex{});
  x[10] = 10.0;
  x[12] = 8.0;   // within min_distance of the stronger peak at 10
  x[30] = 5.0;
  x[40] = 0.5;   // below threshold
  const auto peaks = local_maxima(x, 1.0, 5);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0].index, 10u);
  EXPECT_EQ(peaks[1].index, 30u);
  EXPECT_DOUBLE_EQ(peaks[0].magnitude, 10.0);
}

TEST(PeaksTest, LocalMaximaSortedByIndex) {
  CVec x(100, Complex{});
  x[80] = 3.0;
  x[20] = 2.0;
  x[50] = 5.0;
  const auto peaks = local_maxima(x, 1.0, 3);
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_EQ(peaks[0].index, 20u);
  EXPECT_EQ(peaks[1].index, 50u);
  EXPECT_EQ(peaks[2].index, 80u);
}

TEST(PeaksTest, NoiseSigmaEstimateOnPureNoise) {
  Rng rng(7);
  CVec x(4096);
  const double sigma = 0.3;
  for (auto& v : x) v = rng.complex_normal(sigma);
  RVec scratch;
  EXPECT_NEAR(noise_sigma_estimate(x, scratch), sigma, 0.02);
}

TEST(PeaksTest, NoiseSigmaRobustToStrongTaps) {
  Rng rng(8);
  CVec x(2048);
  for (auto& v : x) v = rng.complex_normal(0.1);
  // A handful of very strong "signal" taps should barely move the estimate.
  for (int i = 0; i < 20; ++i)
    x[static_cast<std::size_t>(i * 100)] = {50.0, 0.0};
  RVec scratch;
  EXPECT_NEAR(noise_sigma_estimate(x, scratch), 0.1, 0.02);
}

/// The estimate as a plain nth_element median of |x|^2 computes it.
double nth_element_noise_sigma(const CVec& x) {
  RVec sq(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) sq[i] = std::norm(x[i]);
  const auto mid = sq.begin() + static_cast<std::ptrdiff_t>(sq.size() / 2);
  std::nth_element(sq.begin(), mid, sq.end());
  return std::sqrt(*mid) / std::sqrt(2.0 * std::log(2.0));
}

TEST(PeaksTest, NoiseSigmaEstimateSelectsTheNthElementMedian) {
  // The radix select must return the very double nth_element selects, so
  // no detector stop decision moves. NaN stays unspecified, as there.
  Rng rng(12);
  const double inf = std::numeric_limits<double>::infinity();
  RVec scratch;  // reused dirty across inputs, as the detector reuses it
  for (const std::size_t n : {1u, 2u, 7u, 33u, 1001u, 8192u}) {
    SCOPED_TRACE(n);
    const auto noise = [&](double sigma) {
      CVec x(n);
      for (auto& v : x) v = rng.complex_normal(sigma);
      return x;
    };
    std::vector<CVec> inputs;
    inputs.push_back(noise(0.3));
    inputs.push_back(CVec(n, Complex{}));
    CVec ties(n);  // three levels only, -0.0 among them
    for (auto& v : ties) {
      const std::int64_t level = rng.uniform_int(0, 2);
      v = level == 0 ? Complex{-0.0, 0.0}
                     : Complex{0.5 * static_cast<double>(level), 0.0};
    }
    inputs.push_back(ties);
    CVec peaks = noise(0.01);
    for (std::size_t i = 0; i < n; i += 97) peaks[i] = {1e150, -1e150};
    inputs.push_back(peaks);
    // Squares in the subnormal range, some flushed to zero.
    inputs.push_back(noise(1e-160));
    CVec infinite = noise(1.0);  // more than half +inf: an infinite median
    for (std::size_t i = 0; i < n; i += 3) infinite[i] = {1e200, 0.0};
    for (std::size_t i = 1; i < n; i += 3) infinite[i] = {inf, 1.0};
    inputs.push_back(infinite);
    for (const CVec& x : inputs)
      EXPECT_EQ(noise_sigma_estimate(x, scratch), nth_element_noise_sigma(x));
  }
}

TEST(StatsTest, BasicMoments) {
  const RVec x{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(x), 5.0);
  EXPECT_NEAR(variance(x), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(x), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(rms(RVec{3.0, 4.0}), std::sqrt(12.5));
}

TEST(StatsTest, SingleElementEdgeCases) {
  EXPECT_DOUBLE_EQ(mean(RVec{42.0}), 42.0);
  EXPECT_DOUBLE_EQ(variance(RVec{42.0}), 0.0);
  EXPECT_DOUBLE_EQ(median(RVec{42.0}), 42.0);
}

TEST(StatsTest, MedianAndPercentile) {
  EXPECT_DOUBLE_EQ(median(RVec{1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(RVec{1.0, 2.0, 3.0, 4.0}), 2.5);
  EXPECT_DOUBLE_EQ(percentile(RVec{0.0, 10.0}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(RVec{0.0, 10.0}, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(RVec{0.0, 10.0}, 25.0), 2.5);
  EXPECT_THROW(percentile(RVec{1.0}, 101.0), PreconditionError);
  EXPECT_THROW(mean(RVec{}), PreconditionError);
}

}  // namespace
}  // namespace uwb::dsp
