#include "dw1000/timestamping.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"
#include "dsp/peaks.hpp"
#include "dsp/signal.hpp"
#include "dw1000/pulse.hpp"

namespace uwb::dw {

namespace {
/// Relative jitter growth per unit of pulse width factor above 1
/// (reproduces sigma_3/sigma_1 ~= 1.24 between shapes 0xE6 and 0x93).
constexpr double kWidthJitterSlope = 0.15;
}  // namespace

double rx_timestamp_sigma_s(std::uint8_t tc_pgdelay) {
  const double w = pulse_width_factor(tc_pgdelay);
  return kBaseJitterS * (1.0 + kWidthJitterSlope * (w - 1.0));
}

DwTimestamp noisy_rx_timestamp(std::uint8_t tc_pgdelay,
                               DwTimestamp true_arrival, Rng& rng) {
  const double sigma = rx_timestamp_sigma_s(tc_pgdelay);
  return true_arrival.plus_seconds(Seconds(rng.normal(0.0, sigma)));
}

double detect_first_path(const CVec& cir_taps, double noise_floor_factor,
                         double relative_factor) {
  UWB_EXPECTS(!cir_taps.empty());
  UWB_EXPECTS(noise_floor_factor > 0.0 && relative_factor > 0.0);
  const RVec mag = dsp::magnitude(cir_taps);
  const double peak = *std::max_element(mag.begin(), mag.end());
  RVec scratch;
  const double noise = dsp::noise_sigma_estimate(cir_taps, scratch);
  const double threshold = std::max(noise_floor_factor * noise,
                                    relative_factor * peak);
  for (std::size_t i = 0; i < mag.size(); ++i) {
    if (mag[i] >= threshold) {
      if (i == 0) return 0.0;
      // Interpolate the crossing between i-1 and i.
      const double below = mag[i - 1];
      const double frac = (threshold - below) / (mag[i] - below);
      return static_cast<double>(i - 1) + std::clamp(frac, 0.0, 1.0);
    }
  }
  return 0.0;
}

}  // namespace uwb::dw
