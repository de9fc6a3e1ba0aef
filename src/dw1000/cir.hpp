// Channel impulse response estimation (accumulator model).
//
// The DW1000 estimates the CIR from the preamble: 1016 complex taps at
// T_s = 1.0016 ns for PRF 64 MHz. In a concurrent-ranging round every
// arriving preamble (each responder's every propagation path) adds its pulse
// shape into the same accumulator; this module performs that superposition
// plus the accumulator noise.
//
// Synthesis runs in two steps. capture_cir() is taken when a receive batch
// completes: it keeps the arrivals and draws the accumulator noise, so every
// random draw happens at the receiver in simulation order. CirCapture::render()
// superposes the pulses and adds the captured noise; it draws nothing, so it
// runs only where a consumer reads the taps (in a ranging round, the
// initiator) and yields the same taps whenever it runs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "common/types.hpp"

namespace uwb::dw {

/// One pulse arriving at the receiver during CIR accumulation.
struct CirArrival {
  /// Pulse peak time relative to the start of the CIR window [s].
  double time_into_window_s = 0.0;
  /// Complex amplitude at the receiver.
  Complex amplitude;
  /// Pulse shape used by the transmitter (TC_PGDELAY).
  std::uint8_t tc_pgdelay = k::tc_pgdelay_default;
};

/// Accumulator configuration.
struct CirParams {
  int length = k::cir_len_prf64;
  double ts_s = k::cir_ts_s;
  /// Accumulator noise per complex component (relative to the unit-amplitude
  /// scale of CirArrival::amplitude).
  double noise_sigma = 0.004;
};

/// An estimated CIR as read back from the accumulator.
struct CirEstimate {
  CVec taps;
  double ts_s = k::cir_ts_s;
  /// Index the receiver reports as the first path of the frame it
  /// synchronised on (tap-space, fractional).
  double first_path_index = 0.0;
};

/// The accumulator as captured at the end of a receive batch: the arrivals
/// it superposes and the noise it drew, not yet rendered into taps.
struct CirCapture {
  std::vector<CirArrival> arrivals;
  /// Accumulator noise, one sample per tap in tap order; empty when the
  /// noise sigma is zero.
  CVec noise;
  int length = k::cir_len_prf64;
  double ts_s = k::cir_ts_s;
  /// Copied into CirEstimate::first_path_index by render().
  double first_path_index = 0.0;

  /// Superpose the arrivals in arrival order, each over its pulse support
  /// by a PulseStepper (one per run of equal registers), then add the noise
  /// tap by tap. Draw-free. Counts the arrivals and the taps they touch
  /// (`cir_render_arrivals`, `cir_render_taps`). An arrival time must be
  /// finite.
  CirEstimate render() const;
};

/// Keep `arrivals` and draw the accumulator noise: `length` complex normal
/// samples in tap order, none when `params.noise_sigma` is zero.
CirCapture capture_cir(std::vector<CirArrival> arrivals,
                       const CirParams& params, Rng& rng);

/// capture_cir(arrivals, params, rng).render(): the one-step synthesis for
/// callers that read the taps at once.
CirEstimate synthesize_cir(const std::vector<CirArrival>& arrivals,
                           const CirParams& params, Rng& rng);

}  // namespace uwb::dw
