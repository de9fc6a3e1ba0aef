// TC_PGDELAY pulse shaping (paper Sect. V, Fig. 5).
//
// Decawave does not document the transmitted pulse; the paper measured it
// per TC_PGDELAY register value. We model the measured behaviour with an
// analytic template: a Gaussian envelope whose width grows monotonically
// with the register value (the register reduces the output bandwidth),
// carrying a register-dependent residual oscillation plus a trailing ring
// lobe — reproducing the widening *and* the structural change across the
// measured shapes of Fig. 5 that makes them separable by matched filtering.
// The default 0x93 maps to the ~900 MHz bandwidth of channel 7; values up
// to 0xFF give the paper's "up to 108" distinct shapes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace uwb::dw {

/// Width multiplier of the main lobe relative to the default register 0x93.
/// Monotonically increasing in the register value; 1.0 at the default.
double pulse_width_factor(std::uint8_t tc_pgdelay);

/// Continuous pulse shape s(t) for a register value; peak ~1.0 at t = 0,
/// t in seconds. Deterministic; two exp() and one cos() per call. The
/// detector's templates and subtractions call it directly; the CIR render
/// steps it along a tap grid with PulseStepper, and tests compare the two.
double pulse_value(std::uint8_t tc_pgdelay, double t_s);

/// Effective pulse support T_p: s(t) is negligible outside
/// [-duration/2 .. +duration/2] around the peak (conservative bound
/// including the ring lobe).
double pulse_duration_s(std::uint8_t tc_pgdelay);

/// Main-lobe duration (FWHM of the envelope): the "pulse duration" visible
/// in the paper's Fig. 5 and the window the threshold-based baseline scans
/// after a crossing.
double pulse_main_lobe_s(std::uint8_t tc_pgdelay);

/// Nominal -10 dB bandwidth [Hz] (900 MHz / width factor at channel 7).
double pulse_bandwidth_hz(std::uint8_t tc_pgdelay);

/// Adds one register's pulse to taps of spacing Ts by recurrence: the CIR
/// render's inner loop. Along an arrival's support each Gaussian factor of
/// s(t) steps as g <- g*r, r <- r*e^(-Ts^2/sigma^2), and the carrier phasor
/// as p <- p*e^(j*omega*Ts). An arrival costs 4 exp and one sin/cos pair
/// at its first tap (simd::exp and simd::sincos), where pulse_value()
/// costs three libm calls per tap; every tap stays within
/// 1e-12*|amplitude| of the pulse_value() sum. Built once per (register,
/// Ts) from pulse_value()'s constants; it keeps no per-arrival state.
///
/// add() is start(), the start values, then step(); a caller with many
/// arrivals computes the start values of a block at once with the array
/// kernels, bit for bit the values add() computes one at a time.
class PulseStepper {
 public:
  PulseStepper(std::uint8_t tc_pgdelay, double ts_s);

  std::uint8_t tc_pgdelay() const { return tc_pgdelay_; }

  /// Where an arrival touches the taps, and the arguments of its start
  /// values at the first tap.
  struct Start {
    /// Taps [begin, end); empty for a pulse wholly outside them.
    std::size_t begin = 0;
    std::size_t end = 0;
    /// Exponents of the main Gaussian, its ratio to the next tap, the ring
    /// Gaussian and its ratio (all 0 for an empty range).
    std::array<double, 4> exp_args{};
    /// Carrier phase omega*t0 (0 for an empty range).
    double phase = 0.0;
  };

  /// The taps n from floor((t_s - T_p/2)/Ts) to ceil((t_s + T_p/2)/Ts),
  /// T_p the pulse_duration_s(), clipped to [0, n_taps). t_s must be
  /// finite.
  Start start(double t_s, std::size_t n_taps) const;

  /// taps[n] += amplitude * s(n*Ts - t_s) over start's range, stepped from
  /// exps[i] = e^(start.exp_args[i]) and the cosine and sine of
  /// start.phase. Returns the number of taps touched.
  std::size_t step(CVec& taps, const Start& start, const double* exps,
                   double cos_phase, double sin_phase,
                   Complex amplitude) const;

  /// step() for `lanes` (≤ 4) arrivals in order, their recurrences run
  /// side by side in the lanes of simd::pulse_steps4: the same taps bit
  /// for bit. Arrival l has start starts[l], start values exps[4l..4l+3]
  /// and cos_phase[l], sin_phase[l], and amplitude amplitudes[l]. Returns
  /// the number of taps touched.
  std::size_t step4(CVec& taps, const Start* starts, const double* exps,
                    const double* cos_phase, const double* sin_phase,
                    const Complex* amplitudes, std::size_t lanes) const;

  /// step(taps, start(t_s, taps.size()), ...) with the start values from
  /// the scalar simd::exp and simd::sincos.
  std::size_t add(CVec& taps, double t_s, Complex amplitude) const;

 private:
  std::uint8_t tc_pgdelay_;
  double ts_s_;
  double half_support_s_;
  double sigma_s_;
  double ring_delay_s_;
  double ring_sigma_s_;
  // Ts in units of each Gaussian's sigma, and e^(-u^2), the ratio between
  // successive ratios g(t+Ts)/g(t).
  double main_step_;
  double main_ratio_step_;
  double ring_step_;
  double ring_ratio_step_;
  double omega_rad_s_;
  // e^(j*omega*Ts).
  double carrier_step_cos_;
  double carrier_step_sin_;
};

/// Sampled template at spacing `ts_s` (odd length, peak at the centre
/// sample). Suitable for MatchedFilter construction; not normalised.
CVec sample_pulse_template(std::uint8_t tc_pgdelay, double ts_s);

/// Index of the centre (peak) sample of sample_pulse_template's output.
std::size_t template_centre_index(std::uint8_t tc_pgdelay, double ts_s);

}  // namespace uwb::dw
