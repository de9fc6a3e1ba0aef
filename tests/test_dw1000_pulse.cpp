// Unit tests: TC_PGDELAY pulse shaping (paper Sect. V, Fig. 5).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <utility>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "common/random.hpp"
#include "dsp/signal.hpp"
#include "dw1000/pulse.hpp"

namespace uwb::dw {
namespace {

// The paper's canonical registers (Fig. 5).
constexpr std::uint8_t kS1 = 0x93;
constexpr std::uint8_t kS2 = 0xC8;
constexpr std::uint8_t kS3 = 0xE6;
constexpr std::uint8_t kS4 = 0xF0;

TEST(PulseTest, DefaultWidthFactorIsOne) {
  EXPECT_DOUBLE_EQ(pulse_width_factor(kS1), 1.0);
}

TEST(PulseTest, WidthGrowsMonotonically) {
  double prev = 0.0;
  for (int reg = kS1; reg <= k::tc_pgdelay_max; ++reg) {
    const double w = pulse_width_factor(static_cast<std::uint8_t>(reg));
    EXPECT_GT(w, prev);
    prev = w;
  }
}

TEST(PulseTest, CanonicalOrderingMatchesFig5) {
  EXPECT_LT(pulse_width_factor(kS1), pulse_width_factor(kS2));
  EXPECT_LT(pulse_width_factor(kS2), pulse_width_factor(kS3));
  EXPECT_LT(pulse_width_factor(kS3), pulse_width_factor(kS4));
}

TEST(PulseTest, BelowDefaultRegisterThrows) {
  // 0x93 is the lower limit (narrower would violate the spectral mask).
  EXPECT_THROW(pulse_width_factor(0x92), PreconditionError);
  EXPECT_THROW(pulse_value(0x00, 0.0), PreconditionError);
  EXPECT_THROW(PulseStepper(0x92, k::cir_ts_s), PreconditionError);
}

TEST(PulseTest, PeakNearUnityAtZero) {
  for (std::uint8_t reg : {kS1, kS2, kS3, kS4}) {
    const double v = pulse_value(reg, 0.0);
    EXPECT_GT(v, 0.85);
    EXPECT_LE(v, 1.05);
  }
}

TEST(PulseTest, DecaysToZeroOutsideSupport) {
  for (std::uint8_t reg : {kS1, kS3}) {
    const double half = pulse_duration_s(reg) / 2.0;
    EXPECT_LT(std::abs(pulse_value(reg, -half)), 1e-3);
    EXPECT_LT(std::abs(pulse_value(reg, +half)), 1e-3);
  }
}

TEST(PulseTest, HasTrailingRingLobe) {
  // Fig. 5 shows asymmetric ringing after the main lobe; our template
  // reproduces a negative trailing lobe.
  const double sigma = 0.75e-9;
  double min_v = 0.0;
  for (double t = 0.5 * sigma; t < 4.0 * sigma; t += 0.05 * sigma)
    min_v = std::min(min_v, pulse_value(kS1, t));
  EXPECT_LT(min_v, -0.05);
}

TEST(PulseTest, DefaultBandwidthIs900MHz) {
  EXPECT_DOUBLE_EQ(pulse_bandwidth_hz(kS1), 900e6);
  EXPECT_LT(pulse_bandwidth_hz(kS3), 900e6 / 2.0);
}

TEST(PulseTest, DurationScalesWithWidth) {
  EXPECT_NEAR(pulse_duration_s(kS2) / pulse_duration_s(kS1),
              pulse_width_factor(kS2), 1e-9);
}

TEST(PulseTest, TemplateOddLengthPeakCentred) {
  const double ts = k::cir_ts_s / 8.0;
  const CVec tmpl = sample_pulse_template(kS1, ts);
  ASSERT_EQ(tmpl.size() % 2, 1u);
  const std::size_t centre = template_centre_index(kS1, ts);
  EXPECT_EQ(centre, tmpl.size() / 2);
  // The centre sample is the global magnitude maximum.
  for (const auto& v : tmpl) EXPECT_LE(std::abs(v), std::abs(tmpl[centre]) + 1e-12);
}

TEST(PulseTest, TemplateSamplesMatchContinuousPulse) {
  const double ts = 0.2e-9;
  const CVec tmpl = sample_pulse_template(kS3, ts);
  const auto centre = static_cast<double>(template_centre_index(kS3, ts));
  for (std::size_t i = 0; i < tmpl.size(); ++i) {
    const double t = (static_cast<double>(i) - centre) * ts;
    EXPECT_NEAR(tmpl[i].real(), pulse_value(kS3, t), 1e-12);
    EXPECT_NEAR(tmpl[i].imag(), 0.0, 1e-12);
  }
}

TEST(PulseTest, CrossCorrelationBelowUnity) {
  // The Sect. V classifier needs the canonical shapes to be distinguishable:
  // normalised cross-correlation well below 1.
  const double ts = k::cir_ts_s / 8.0;
  const CVec s1 = dsp::normalize_energy(sample_pulse_template(kS1, ts));
  const CVec s2 = dsp::normalize_energy(sample_pulse_template(kS2, ts));
  const CVec s3 = dsp::normalize_energy(sample_pulse_template(kS3, ts));
  const auto xcorr_max = [](const CVec& a, const CVec& b) {
    double best = 0.0;
    const auto na = static_cast<std::ptrdiff_t>(a.size());
    const auto nb = static_cast<std::ptrdiff_t>(b.size());
    for (std::ptrdiff_t lag = -nb + 1; lag < na; ++lag) {
      Complex acc{};
      for (std::ptrdiff_t i = std::max<std::ptrdiff_t>(0, lag);
           i < std::min(na, lag + nb); ++i)
        acc += a[static_cast<std::size_t>(i)] *
               std::conj(b[static_cast<std::size_t>(i - lag)]);
      best = std::max(best, std::abs(acc));
    }
    return best;
  };
  EXPECT_LT(xcorr_max(s1, s2), 0.90);
  EXPECT_LT(xcorr_max(s1, s3), 0.72);
  EXPECT_LT(xcorr_max(s2, s3), 0.88);
}

TEST(PulseTest, AtLeast108DistinctShapes) {
  // Paper Sect. V: "up to 108 different pulse shapes are supported".
  EXPECT_GE(k::tc_pgdelay_max - k::tc_pgdelay_default, 107);
  // All register values sample without error.
  for (int reg = k::tc_pgdelay_default; reg <= k::tc_pgdelay_max; ++reg)
    EXPECT_NO_THROW(pulse_value(static_cast<std::uint8_t>(reg), 0.0));
}

TEST(PulseTest, InvalidSamplePeriodThrows) {
  EXPECT_THROW(sample_pulse_template(kS1, 0.0), PreconditionError);
  EXPECT_THROW(template_centre_index(kS1, -1.0), PreconditionError);
  EXPECT_THROW(PulseStepper(kS1, 0.0), PreconditionError);
}

// --- the render's stepper ----------------------------------------------------

// The taps the CIR render superposed a pulse on before it stepped the
// pulse by recurrence: floor/ceil of +-T_p/2 around the peak, clipped to
// the window. Returns [begin, end), empty for a pulse wholly outside.
std::pair<std::size_t, std::size_t> floor_ceil_support(std::uint8_t reg,
                                                       double t_s, double ts_s,
                                                       std::size_t length) {
  const double half = pulse_duration_s(reg) / 2.0;
  const auto lo = static_cast<std::ptrdiff_t>(std::floor((t_s - half) / ts_s));
  const auto hi = static_cast<std::ptrdiff_t>(std::ceil((t_s + half) / ts_s));
  const std::ptrdiff_t begin = std::max<std::ptrdiff_t>(0, lo);
  const std::ptrdiff_t last =
      std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(length) - 1, hi);
  if (begin > last) return {0, 0};
  return {static_cast<std::size_t>(begin), static_cast<std::size_t>(last) + 1};
}

TEST(PulseStepperTest, MatchesPulseValueOnTheFloorCeilSupport) {
  constexpr std::size_t kLength = 64;
  const double ts = k::cir_ts_s;
  const auto window = static_cast<double>(kLength);
  Rng gen(19);
  double worst = 0.0;  // max |stepper - pulse_value sum| / |amplitude|
  std::size_t outside = 0;
  for (int reg = k::tc_pgdelay_default; reg <= k::tc_pgdelay_max; ++reg) {
    SCOPED_TRACE(testing::Message() << "register 0x" << std::hex << reg);
    const auto shape = static_cast<std::uint8_t>(reg);
    const PulseStepper stepper(shape, ts);
    EXPECT_EQ(stepper.tc_pgdelay(), shape);
    const double half = pulse_duration_s(shape) / 2.0 / ts;  // in taps
    // Peak positions in taps, each at a random sub-tap delay: three inside
    // the window, two straddling tap 0, two straddling the last tap, and
    // one wholly before and one wholly after the window.
    const double peaks[] = {
        gen.uniform(half, window - 1.0 - half),
        gen.uniform(half, window - 1.0 - half),
        gen.uniform(half, window - 1.0 - half),
        gen.uniform(-half, 0.0),
        gen.uniform(0.0, half),
        gen.uniform(window - 1.0 - half, window - 1.0),
        gen.uniform(window - 1.0, window - 1.0 + half),
        -half - 1.0 - gen.uniform(0.0, 4.0),
        window + half + gen.uniform(0.0, 4.0),
    };
    for (const double peak : peaks) {
      const double t = peak * ts;
      const Complex amplitude =
          std::polar(gen.uniform(0.01, 2.0),
                     gen.uniform(-std::numbers::pi, std::numbers::pi));
      CVec taps(kLength, Complex{});
      const std::size_t touched = stepper.add(taps, t, amplitude);
      const auto [begin, end] = floor_ceil_support(shape, t, ts, kLength);
      EXPECT_EQ(touched, end - begin) << "peak " << peak;
      if (touched == 0) ++outside;
      for (std::size_t n = 0; n < kLength; ++n) {
        if (n < begin || n >= end) {
          EXPECT_EQ(taps[n], Complex{}) << "tap " << n << " peak " << peak;
          continue;
        }
        EXPECT_NE(taps[n], Complex{}) << "tap " << n << " peak " << peak;
        const Complex want =
            amplitude * pulse_value(shape, static_cast<double>(n) * ts - t);
        worst = std::max(worst, std::abs(taps[n] - want) / std::abs(amplitude));
      }
    }
  }
  EXPECT_EQ(outside, static_cast<std::size_t>(2 * k::num_pulse_shapes));
  EXPECT_LE(worst, 1e-12);
  RecordProperty("max_deviation_per_amplitude", testing::PrintToString(worst));
}

}  // namespace
}  // namespace uwb::dw
