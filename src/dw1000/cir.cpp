#include "dw1000/cir.hpp"

#include <optional>
#include <utility>

#include "common/expects.hpp"
#include "dw1000/pulse.hpp"
#include "obs/obs.hpp"

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
    out.noise_key = rng.bits();
    out.noise_sigma = params.noise_sigma;
  }
  return out;
}

CirEstimate CirCapture::render() const {
  CirEstimate out;
  out.ts_s = ts_s;
  out.first_path_index = first_path_index;
  out.taps.assign(static_cast<std::size_t>(length), Complex{});

  // Arrivals come in runs of one transmitter's frame, so one stepper
  // serves every arrival until the register changes.
  std::optional<PulseStepper> stepper;
  std::size_t taps_touched = 0;
  for (const CirArrival& a : arrivals) {
    if (!stepper || stepper->tc_pgdelay() != a.tc_pgdelay)
      stepper.emplace(a.tc_pgdelay, ts_s);
    taps_touched += stepper->add(out.taps, a.time_into_window_s, a.amplitude);
  }
  UWB_OBS_COUNT("cir_render_arrivals", arrivals.size());
  UWB_OBS_COUNT("cir_render_taps", taps_touched);

  // Noise after every pulse, drawn here: only a CIR someone reads pays for
  // its noise, and the stream is seeded afresh, so every render draws the
  // same samples.
  std::size_t noise_samples = 0;
  if (noise_sigma > 0.0) {
    Rng noise(derive_seed(noise_key, 0));
    for (Complex& tap : out.taps) tap += noise.complex_normal(noise_sigma);
    noise_samples = out.taps.size();
  }
  UWB_OBS_COUNT("cir_noise_samples", noise_samples);
  return out;
}

CirEstimate synthesize_cir(const std::vector<CirArrival>& arrivals,
                           const CirParams& params, Rng& rng) {
  return capture_cir(arrivals, params, rng).render();
}

}  // namespace uwb::dw
