// Channel impulse response estimation (accumulator model).
//
// The DW1000 estimates the CIR from the preamble: 1016 complex taps at
// T_s = 1.0016 ns for PRF 64 MHz. In a concurrent-ranging round every
// arriving preamble (each responder's every propagation path) adds its pulse
// shape into the same accumulator; this module performs that superposition
// plus the accumulator noise.
//
// Synthesis runs in two steps. capture_cir() is taken when a receive batch
// completes: it keeps the arrivals and draws one word on the receiver's
// stream, the key of the accumulator noise. CirCapture::render() superposes
// the pulses and then draws the noise on the stream that key seeds; it runs
// only where a consumer reads the taps (in a ranging round, the initiator),
// so a CIR nobody reads costs one word, and it yields the same taps
// whenever it runs.
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
/// it superposes and the key of its noise, not yet rendered into taps.
struct CirCapture {
  std::vector<CirArrival> arrivals;
  /// render() draws the accumulator noise on Rng(derive_seed(noise_key, 0)).
  std::uint64_t noise_key = 0;
  /// Accumulator noise per complex component; 0 draws none.
  double noise_sigma = 0.0;
  int length = k::cir_len_prf64;
  double ts_s = k::cir_ts_s;
  /// Copied into CirEstimate::first_path_index by render().
  double first_path_index = 0.0;

  /// Superpose the arrivals in arrival order, each over its pulse support
  /// by a PulseStepper (one per run of equal registers, its start values
  /// computed for blocks of arrivals by the array kernels: the taps equal
  /// PulseStepper::add's bit for bit), then add `length` complex normals of
  /// sigma `noise_sigma`, drawn in tap order on Rng(derive_seed(noise_key,
  /// 0)) by Rng::complex_normals. Every call draws the same noise.
  /// Counts the arrivals, the taps they touch and the noise samples drawn
  /// (`cir_render_arrivals`, `cir_render_taps`, `cir_noise_samples`). An
  /// arrival time must be finite.
  CirEstimate render() const;
};

/// Keep `arrivals` and draw the noise key: one word of `rng`, none when
/// `params.noise_sigma` is zero.
CirCapture capture_cir(std::vector<CirArrival> arrivals,
                       const CirParams& params, Rng& rng);

/// capture_cir(arrivals, params, rng).render(): the one-step synthesis for
/// callers that read the taps at once.
CirEstimate synthesize_cir(const std::vector<CirArrival>& arrivals,
                           const CirParams& params, Rng& rng);

}  // namespace uwb::dw
