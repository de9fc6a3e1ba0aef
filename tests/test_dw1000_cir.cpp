// Unit tests: CIR synthesis (capture and render), RX timestamping model,
// first-path detection, and energy accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "dsp/peaks.hpp"
#include "dsp/signal.hpp"
#include "dw1000/cir.hpp"
#include "dw1000/energy.hpp"
#include "dw1000/pulse.hpp"
#include "dw1000/timestamping.hpp"
#include "obs/metrics.hpp"
#include "simd/simd.hpp"

namespace uwb::dw {
namespace {

CirParams noiseless() {
  CirParams p;
  p.noise_sigma = 0.0;
  return p;
}

TEST(CirTest, EmptyArrivalsGiveNoise) {
  CirParams params;
  params.noise_sigma = 0.01;
  Rng rng(1);
  const CirEstimate cir = synthesize_cir({}, params, rng);
  ASSERT_EQ(cir.taps.size(), static_cast<std::size_t>(k::cir_len_prf64));
  RVec scratch;
  EXPECT_NEAR(dsp::noise_sigma_estimate(cir.taps, scratch), 0.01, 0.003);
}

TEST(CirTest, SinglePulsePeaksAtArrival) {
  Rng rng(2);
  CirArrival a;
  a.time_into_window_s = 100.0 * k::cir_ts_s;
  a.amplitude = {0.7, 0.0};
  const CirEstimate cir = synthesize_cir({a}, noiseless(), rng);
  const std::size_t peak = dsp::argmax_abs(cir.taps);
  EXPECT_EQ(peak, 100u);
  EXPECT_NEAR(std::abs(cir.taps[peak]), 0.7, 0.01);
}

TEST(CirTest, FractionalDelayShiftsEnergyBetweenTaps) {
  Rng rng(3);
  CirArrival a;
  a.amplitude = {1.0, 0.0};
  a.time_into_window_s = 50.0 * k::cir_ts_s;
  const CirEstimate on_grid = synthesize_cir({a}, noiseless(), rng);
  a.time_into_window_s = 50.5 * k::cir_ts_s;
  const CirEstimate off_grid = synthesize_cir({a}, noiseless(), rng);
  // On-grid: tap 50 carries the peak value; off-grid: taps 50 and 51 split.
  EXPECT_GT(std::abs(on_grid.taps[50]), std::abs(off_grid.taps[50]));
  EXPECT_GT(std::abs(off_grid.taps[51]), std::abs(on_grid.taps[51]));
}

TEST(CirTest, SuperpositionIsLinear) {
  Rng rng1(4), rng2(4), rng3(4);
  CirArrival a;
  a.time_into_window_s = 80.0 * k::cir_ts_s;
  a.amplitude = {0.5, 0.1};
  CirArrival b;
  b.time_into_window_s = 300.0 * k::cir_ts_s;
  b.amplitude = {0.0, -0.4};
  const CirEstimate both = synthesize_cir({a, b}, noiseless(), rng1);
  const CirEstimate only_a = synthesize_cir({a}, noiseless(), rng2);
  const CirEstimate only_b = synthesize_cir({b}, noiseless(), rng3);
  for (std::size_t i = 0; i < both.taps.size(); ++i)
    EXPECT_NEAR(std::abs(both.taps[i] - only_a.taps[i] - only_b.taps[i]), 0.0,
                1e-12);
}

TEST(CirTest, ArrivalOutsideWindowIgnored) {
  Rng rng(5);
  CirArrival a;
  a.time_into_window_s = 2000.0 * k::cir_ts_s;  // beyond the 1016-tap window
  a.amplitude = {1.0, 0.0};
  const CirEstimate cir = synthesize_cir({a}, noiseless(), rng);
  EXPECT_LT(dsp::energy(cir.taps), 1e-12);
}

TEST(CirTest, NegativeArrivalPartiallyClipped) {
  Rng rng(6);
  CirArrival a;
  a.time_into_window_s = -0.5 * pulse_duration_s(k::tc_pgdelay_default);
  a.amplitude = {1.0, 0.0};
  const CirEstimate cir = synthesize_cir({a}, noiseless(), rng);
  // Some trailing ring energy may land in the window, but far less than a
  // full pulse.
  EXPECT_LT(dsp::energy(cir.taps), 0.5);
}

TEST(CirTest, WiderPulseSpreadsMoreTaps) {
  Rng rng(7);
  CirArrival narrow;
  narrow.time_into_window_s = 200.0 * k::cir_ts_s;
  narrow.amplitude = {1.0, 0.0};
  narrow.tc_pgdelay = 0x93;
  CirArrival wide = narrow;
  wide.tc_pgdelay = 0xE6;
  const CirEstimate cn = synthesize_cir({narrow}, noiseless(), rng);
  const CirEstimate cw = synthesize_cir({wide}, noiseless(), rng);
  const auto count_significant = [](const CVec& taps) {
    int n = 0;
    for (const auto& v : taps)
      if (std::abs(v) > 0.05) ++n;
    return n;
  };
  EXPECT_GT(count_significant(cw.taps), count_significant(cn.taps));
}

TEST(CirTest, InvalidParamsThrow) {
  Rng rng(8);
  CirParams bad;
  bad.length = 0;
  EXPECT_THROW(synthesize_cir({}, bad, rng), PreconditionError);
  bad = CirParams{};
  bad.noise_sigma = -1.0;
  EXPECT_THROW(synthesize_cir({}, bad, rng), PreconditionError);
  for (const double t : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    CirArrival a;
    a.time_into_window_s = t;
    EXPECT_THROW(synthesize_cir({a}, noiseless(), rng), PreconditionError)
        << t;
  }
}

// --- capture/render split ----------------------------------------------------

// The synthesis written out in one pass: superpose every pulse, then add
// the noise, one complex normal per tap in tap order, drawn on the stream
// keyed by one word of the receiver's stream. The reference the split must
// reproduce bit for bit. Each arrival gets a stepper of its own; the render
// shares one along a run of equal registers. How close a stepper's pulse
// lies to pulse_value() is
// PulseStepperTest.MatchesPulseValueOnTheFloorCeilSupport's business.
CirEstimate one_pass_reference(const std::vector<CirArrival>& arrivals,
                               const CirParams& params, Rng& rng) {
  CirEstimate out;
  out.ts_s = params.ts_s;
  out.taps.assign(static_cast<std::size_t>(params.length), Complex{});
  for (const CirArrival& a : arrivals)
    PulseStepper(a.tc_pgdelay, params.ts_s)
        .add(out.taps, a.time_into_window_s, a.amplitude);
  if (params.noise_sigma > 0.0) {
    Rng noise(derive_seed(rng.bits(), 0));
    for (auto& tap : out.taps) tap += noise.complex_normal(params.noise_sigma);
  }
  return out;
}

// Random arrivals over the whole window with mixed pulse shapes, plus four
// that straddle tap 0 or the last tap, peaking inside or just outside the
// window (every pulse spans at least +-4.5 taps).
std::vector<CirArrival> random_arrivals(std::uint64_t seed,
                                        const CirParams& params) {
  constexpr std::uint8_t kShapes[] = {k::tc_pgdelay_default, 0xA4, 0xC8,
                                      0xE6};
  Rng gen(seed);
  const double ts = params.ts_s;
  const double window_s = static_cast<double>(params.length) * ts;
  std::vector<CirArrival> out;
  const auto n = gen.uniform_int(20, 60);
  for (std::int64_t i = 0; i < n; ++i) {
    CirArrival a;
    a.time_into_window_s = gen.uniform(-6.0 * ts, window_s + 6.0 * ts);
    a.amplitude = gen.complex_normal(0.3);
    a.tc_pgdelay = kShapes[static_cast<std::size_t>(i) % 4];
    out.push_back(a);
  }
  const auto edge = [&](double taps, std::uint8_t shape) {
    CirArrival a;
    a.time_into_window_s = taps * ts;
    a.amplitude = gen.complex_normal(0.5);
    a.tc_pgdelay = shape;
    out.push_back(a);
  };
  edge(-1.7, 0xE6);
  edge(0.4, k::tc_pgdelay_default);
  edge(static_cast<double>(params.length) - 1.3, 0xC8);
  edge(static_cast<double>(params.length) + 0.6, 0xA4);
  return out;
}

void expect_same_taps(const CirEstimate& got, const CirEstimate& want) {
  EXPECT_EQ(got.ts_s, want.ts_s);
  EXPECT_EQ(got.first_path_index, want.first_path_index);
  ASSERT_EQ(got.taps.size(), want.taps.size());
  std::size_t mismatched = 0;
  for (std::size_t n = 0; n < got.taps.size(); ++n)
    if (got.taps[n] != want.taps[n]) ++mismatched;
  EXPECT_EQ(mismatched, 0u);
}

TEST(CirCaptureTest, RenderMatchesOnePassSynthesisBitForBit) {
  for (const int length : {k::cir_len_prf64, k::cir_len_prf16}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(testing::Message() << "length " << length << " seed "
                                      << seed);
      CirParams params;
      params.length = length;
      params.noise_sigma = 0.002 * static_cast<double>(seed);
      const std::vector<CirArrival> arrivals = random_arrivals(seed, params);

      Rng rng_ref(100 + seed), rng_split(100 + seed), rng_key(100 + seed);
      const CirEstimate want = one_pass_reference(arrivals, params, rng_ref);
      const CirCapture capture = capture_cir(arrivals, params, rng_split);
      // The capture drew exactly one word, the noise key.
      EXPECT_EQ(capture.noise_key, rng_key.bits());
      EXPECT_EQ(capture.noise_sigma, params.noise_sigma);
      const std::uint64_t next = rng_key.bits();
      EXPECT_EQ(rng_split.bits(), next);
      EXPECT_EQ(rng_ref.bits(), next);
      expect_same_taps(capture.render(), want);

      // synthesize_cir is the same two steps in one call.
      Rng rng_synth(100 + seed);
      expect_same_taps(synthesize_cir(arrivals, params, rng_synth), want);
    }
  }
}

// Three frames of a concurrent round: runs of a few hundred arrivals, each
// run one pulse shape, so the render's blocks are full and end mid-run.
std::vector<CirArrival> three_frame_arrivals(std::uint64_t seed) {
  constexpr std::uint8_t kShapes[] = {k::tc_pgdelay_default, 0xC8, 0xE6};
  Rng gen(seed);
  std::vector<CirArrival> out;
  for (const std::uint8_t shape : kShapes) {
    const auto n = gen.uniform_int(300, 700);
    double t = gen.uniform(20.0, 200.0) * k::cir_ts_s;
    for (std::int64_t i = 0; i < n; ++i) {
      CirArrival a;
      a.time_into_window_s = t;
      a.amplitude = gen.complex_normal(0.05);
      a.tc_pgdelay = shape;
      out.push_back(a);
      t += gen.exponential(0.2 * k::cir_ts_s);
    }
  }
  return out;
}

TEST(CirCaptureTest, BlockRenderEqualsThePerArrivalLoopOverFrameRuns) {
  // At Ts/8 a pulse spans over 64 taps, more than the render steps four
  // lanes at once, so it falls back to one arrival at a time.
  for (const double ts : {k::cir_ts_s, k::cir_ts_s / 8.0}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "ts " << ts << " seed " << seed);
      CirParams params;
      params.ts_s = ts;
      const std::vector<CirArrival> arrivals = three_frame_arrivals(seed);
      Rng rng_ref(seed), rng(seed);
      expect_same_taps(capture_cir(arrivals, params, rng).render(),
                       one_pass_reference(arrivals, params, rng_ref));
    }
  }
}

TEST(CirCaptureTest, RenderIdenticalAtBothSimdLevels) {
  const simd::Level saved = simd::active_level();
  CirParams params;
  Rng rng(9);
  const CirCapture capture = capture_cir(three_frame_arrivals(9), params, rng);
  ASSERT_TRUE(simd::set_active_level(simd::Level::kScalar));
  const CirEstimate scalar = capture.render();
  if (simd::set_active_level(simd::Level::kAvx2))
    expect_same_taps(capture.render(), scalar);
  simd::set_active_level(saved);
}

TEST(CirCaptureTest, ZeroNoiseDrawsNothing) {
  const CirParams params = noiseless();
  const std::vector<CirArrival> arrivals = random_arrivals(3, params);
  Rng rng(77), untouched(77);
  const CirCapture capture = capture_cir(arrivals, params, rng);
  EXPECT_EQ(capture.noise_sigma, 0.0);
  EXPECT_EQ(rng.bits(), untouched.bits());
  Rng rng_ref(77);
  expect_same_taps(capture.render(),
                   one_pass_reference(arrivals, params, rng_ref));
}

TEST(CirCaptureTest, FarAwayArrivalRendersTheNoiseAlone) {
  // The support of a pulse this far out does not fit an integer tap index;
  // it is clipped to the window before any conversion.
  CirParams params;
  std::vector<CirArrival> arrivals;
  for (const double t : {1e30, -1e30, std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::lowest()}) {
    CirArrival a;
    a.time_into_window_s = t;
    a.amplitude = {1.0, -1.0};
    arrivals.push_back(a);
  }
  Rng rng(21), rng_none(21);
  const CirEstimate cir = capture_cir(arrivals, params, rng).render();
  const CirEstimate noise_alone = capture_cir({}, params, rng_none).render();
  ASSERT_EQ(cir.taps.size(), static_cast<std::size_t>(params.length));
  EXPECT_TRUE(cir.taps == noise_alone.taps);
}

std::uint64_t noise_samples_counted() {
  return obs::MetricsRegistry::instance().aggregate().counter(
      "cir_noise_samples");
}

TEST(CirCaptureTest, OnlyTheRenderDrawsAndCountsTheNoise) {
  const CirParams params;
  Rng rng(8);
  const std::uint64_t before = noise_samples_counted();
  const CirCapture capture = capture_cir({}, params, rng);
  EXPECT_EQ(noise_samples_counted(), before);
  const CirEstimate cir = capture.render();
  EXPECT_EQ(noise_samples_counted() - before,
            static_cast<std::uint64_t>(params.length));
  EXPECT_TRUE(std::all_of(cir.taps.begin(), cir.taps.end(),
                          [](const Complex& tap) { return tap != Complex{}; }));
  const std::uint64_t rendered = noise_samples_counted();
  (void)capture_cir({}, noiseless(), rng).render();
  EXPECT_EQ(noise_samples_counted(), rendered);
}

TEST(CirCaptureTest, RenderIsRepeatableAndCarriesTheAnchor) {
  CirParams params;
  Rng rng(5);
  CirCapture capture = capture_cir(random_arrivals(5, params), params, rng);
  capture.first_path_index = 64.0;
  const CirEstimate a = capture.render();
  const CirEstimate b = capture.render();
  EXPECT_EQ(a.first_path_index, 64.0);
  expect_same_taps(a, b);
}

TEST(TimestampingTest, SigmaGrowsWithPulseWidth) {
  const double s1 = rx_timestamp_sigma_s(0x93);
  const double s3 = rx_timestamp_sigma_s(0xE6);
  EXPECT_GT(s3, s1);
  EXPECT_NEAR(s1, kBaseJitterS, 1e-15);
}

TEST(TimestampingTest, NoisyTimestampUnbiased) {
  Rng rng(9);
  const DwTimestamp truth(1'000'000'000);
  double sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i)
    sum += noisy_rx_timestamp(0x93, truth, rng).diff_seconds(truth).value();
  EXPECT_NEAR(sum / n, 0.0, 5e-12);
}

TEST(TimestampingTest, NoisySpreadMatchesSigma) {
  Rng rng(10);
  const DwTimestamp truth(5'000'000);
  RVec errs;
  for (int i = 0; i < 5000; ++i)
    errs.push_back(
        noisy_rx_timestamp(0x93, truth, rng).diff_seconds(truth).value());
  double sq = 0.0;
  for (double e : errs) sq += e * e;
  const double sigma = std::sqrt(sq / errs.size());
  EXPECT_NEAR(sigma, kBaseJitterS, 0.15 * kBaseJitterS);
}

TEST(TimestampingTest, FirstPathOnCleanPulse) {
  Rng rng(11);
  CirArrival a;
  a.time_into_window_s = 64.0 * k::cir_ts_s;
  a.amplitude = {0.5, 0.0};
  CirParams params;
  params.noise_sigma = 0.004;
  const CirEstimate cir = synthesize_cir({a}, params, rng);
  const double fp = detect_first_path(cir.taps);
  // The leading edge sits within a couple of taps before the peak.
  EXPECT_GT(fp, 58.0);
  EXPECT_LT(fp, 65.0);
}

TEST(TimestampingTest, FirstPathPrefersEarlierWeakerPath) {
  Rng rng(12);
  CirArrival early;
  early.time_into_window_s = 100.0 * k::cir_ts_s;
  early.amplitude = {0.3, 0.0};
  CirArrival late;
  late.time_into_window_s = 140.0 * k::cir_ts_s;
  late.amplitude = {0.9, 0.0};
  CirParams params;
  params.noise_sigma = 0.004;
  const CirEstimate cir = synthesize_cir({early, late}, params, rng);
  const double fp = detect_first_path(cir.taps);
  EXPECT_LT(fp, 105.0);  // locks to the early path, not the strong one
}

TEST(TimestampingTest, InvalidArgsThrow) {
  EXPECT_THROW(detect_first_path(CVec{}), PreconditionError);
  CVec x(16, Complex{1.0, 0.0});
  EXPECT_THROW(detect_first_path(x, 0.0), PreconditionError);
}

TEST(EnergyTest, AccumulatesChargeAndEnergy) {
  EnergyMeter meter;
  meter.add_tx(1.0);  // 1 s at 90 mA
  meter.add_rx(1.0);  // 1 s at 155 mA
  EXPECT_NEAR(meter.charge_c(), 0.245, 1e-9);
  EXPECT_NEAR(meter.energy_j(), 0.245 * 3.3, 1e-9);
  EXPECT_EQ(meter.tx_count(), 1);
  EXPECT_EQ(meter.rx_count(), 1);
}

TEST(EnergyTest, RxDominatesTxPerSecond) {
  // The premise of the paper's motivation: receiving costs more than
  // transmitting on the DW1000.
  EnergyMeter tx_only, rx_only;
  tx_only.add_tx(1.0);
  rx_only.add_rx(1.0);
  EXPECT_GT(rx_only.energy_j(), tx_only.energy_j());
}

TEST(EnergyTest, ResetClears) {
  EnergyMeter meter;
  meter.add_tx(0.5);
  meter.add_idle(100.0);
  meter.reset();
  EXPECT_DOUBLE_EQ(meter.charge_c(), 0.0);
  EXPECT_EQ(meter.tx_count(), 0);
}

TEST(EnergyTest, NegativeDurationThrows) {
  EnergyMeter meter;
  EXPECT_THROW(meter.add_tx(-1.0), PreconditionError);
  EXPECT_THROW(meter.add_rx(-1.0), PreconditionError);
  EXPECT_THROW(meter.add_idle(-1.0), PreconditionError);
}

TEST(EnergyTest, CustomParams) {
  // The meter's arithmetic on the datasheet constants it charges at.
  EnergyMeter meter;
  meter.add_tx(2.0);
  meter.add_rx(0.5);
  EXPECT_DOUBLE_EQ(meter.charge_c(),
                   2.0 * k::tx_current_a + 0.5 * k::rx_current_a);
  EXPECT_DOUBLE_EQ(meter.energy_j(), meter.charge_c() * k::supply_v);
}

}  // namespace
}  // namespace uwb::dw
