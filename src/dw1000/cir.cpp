#include "dw1000/cir.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "common/expects.hpp"
#include "dw1000/pulse.hpp"
#include "obs/obs.hpp"
#include "simd/simd.hpp"

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
  // serves every arrival until the register changes. A block of a run's
  // arrivals takes its start values from one simd::exp and one
  // simd::sincos call, then steps its pulses four at a time, adding them
  // in arrival order.
  constexpr std::size_t kBlock = 32;
  std::optional<PulseStepper> stepper;
  std::size_t taps_touched = 0;
  for (std::size_t b = 0; b < arrivals.size();) {
    const std::uint8_t reg = arrivals[b].tc_pgdelay;
    if (!stepper || stepper->tc_pgdelay() != reg) stepper.emplace(reg, ts_s);
    std::size_t n = 0;
    std::array<PulseStepper::Start, kBlock> starts;
    std::array<double, 4 * kBlock> exps;
    std::array<double, kBlock> phase, sin_phase, cos_phase;
    for (; n < kBlock && b + n < arrivals.size() &&
           arrivals[b + n].tc_pgdelay == reg;
         ++n) {
      starts[n] =
          stepper->start(arrivals[b + n].time_into_window_s, out.taps.size());
      std::copy(starts[n].exp_args.begin(), starts[n].exp_args.end(),
                exps.begin() + 4 * n);
      phase[n] = starts[n].phase;
    }
    simd::exp(exps.data(), exps.data(), 4 * n);
    simd::sincos(phase.data(), sin_phase.data(), cos_phase.data(), n);
    for (std::size_t j = 0; j < n; j += 4) {
      const std::size_t lanes = std::min<std::size_t>(4, n - j);
      std::array<Complex, 4> amplitudes;
      for (std::size_t l = 0; l < lanes; ++l)
        amplitudes[l] = arrivals[b + j + l].amplitude;
      taps_touched += stepper->step4(out.taps, &starts[j], &exps[4 * j],
                                     &cos_phase[j], &sin_phase[j],
                                     amplitudes.data(), lanes);
    }
    b += n;
  }
  UWB_OBS_COUNT("cir_render_arrivals", arrivals.size());
  UWB_OBS_COUNT("cir_render_taps", taps_touched);

  // Noise after every pulse, drawn here: only a CIR someone reads pays for
  // its noise, and the stream is seeded afresh, so every render draws the
  // same samples.
  std::size_t noise_samples = 0;
  if (noise_sigma > 0.0) {
    Rng noise(derive_seed(noise_key, 0));
    std::array<Complex, kBlock> block;
    for (std::size_t b = 0; b < out.taps.size(); b += kBlock) {
      const std::size_t n = std::min(kBlock, out.taps.size() - b);
      noise.complex_normals(noise_sigma, {block.data(), n});
      for (std::size_t j = 0; j < n; ++j) out.taps[b + j] += block[j];
    }
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
