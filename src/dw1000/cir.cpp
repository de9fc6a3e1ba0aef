#include "dw1000/cir.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/expects.hpp"
#include "dw1000/pulse.hpp"

namespace uwb::dw {

CirCapture capture_cir(std::vector<CirArrival> arrivals,
                       const CirParams& params, Rng& rng) {
  UWB_EXPECTS(params.length > 0);
  UWB_EXPECTS(params.ts_s > 0.0);
  UWB_EXPECTS(params.noise_sigma >= 0.0);

  CirCapture out;
  out.arrivals = std::move(arrivals);
  out.length = params.length;
  out.ts_s = params.ts_s;
  if (params.noise_sigma > 0.0) {
    out.noise.resize(static_cast<std::size_t>(params.length));
    for (auto& sample : out.noise)
      sample = rng.complex_normal(params.noise_sigma);
  }
  return out;
}

CirEstimate CirCapture::render() const {
  CirEstimate out;
  out.ts_s = ts_s;
  out.first_path_index = first_path_index;
  out.taps.assign(static_cast<std::size_t>(length), Complex{});

  for (const CirArrival& a : arrivals) {
    const double half = pulse_duration_s(a.tc_pgdelay) / 2.0;
    const auto lo = static_cast<std::ptrdiff_t>(
        std::floor((a.time_into_window_s - half) / ts_s));
    const auto hi = static_cast<std::ptrdiff_t>(
        std::ceil((a.time_into_window_s + half) / ts_s));
    const std::ptrdiff_t begin = std::max<std::ptrdiff_t>(0, lo);
    const std::ptrdiff_t end = std::min<std::ptrdiff_t>(length - 1, hi);
    for (std::ptrdiff_t n = begin; n <= end; ++n) {
      const double t = static_cast<double>(n) * ts_s - a.time_into_window_s;
      out.taps[static_cast<std::size_t>(n)] +=
          a.amplitude * pulse_value(a.tc_pgdelay, t);
    }
  }

  // Noise after every pulse: floating-point addition is not associative,
  // and in this order each tap equals drawing the noise straight into the
  // superposed pulses, bit for bit.
  for (std::size_t n = 0; n < noise.size(); ++n) out.taps[n] += noise[n];
  return out;
}

CirEstimate synthesize_cir(const std::vector<CirArrival>& arrivals,
                           const CirParams& params, Rng& rng) {
  return capture_cir(arrivals, params, rng).render();
}

}  // namespace uwb::dw
