#include "dw1000/pulse.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "simd/math.hpp"
#include "simd/simd.hpp"

namespace uwb::dw {

namespace {

// Calibration of the analytic template (see header).
//
// The template is a Gaussian-windowed oscillation plus a trailing ring lobe:
// increasing TC_PGDELAY slows the pulse generator, which both widens the
// envelope (lower bandwidth) and shifts the residual oscillation frequency —
// the structural change visible across the measured shapes in Fig. 5. The
// frequency term is what keeps even nearby register values distinguishable
// by matched filtering (canonical s1/s2/s3 cross-correlations ~0.6/0.3/0.5).
constexpr double kBaseSigmaS = 0.75e-9;  // default main-lobe sigma (~2 ns FWHM)
constexpr double kWidthSlope = 0.020;    // envelope growth per register step
constexpr double kBaseFreqHz = 60e6;     // residual oscillation at the default
// Oscillation shift per register step. Kept small enough that every shape's
// spectrum stays inside the +-499 MHz band of the 1.0016 ns CIR sampling —
// otherwise the accumulator aliases the pulse and matched filtering against
// the true template breaks down.
constexpr double kFreqSlopeHz = 2.5e6;
constexpr double kRingAmp = 0.25;        // trailing ring lobe amplitude
// Ring lobe delay and width, in units of the main-lobe sigma.
constexpr double kRingDelay = 1.9;
constexpr double kRingWidth = 0.6;

int register_delta(std::uint8_t reg) {
  UWB_EXPECTS(reg >= k::tc_pgdelay_default);
  return reg - k::tc_pgdelay_default;
}

double main_sigma_s(int delta) {
  return kBaseSigmaS * (1.0 + kWidthSlope * delta);
}

double carrier_rad_s(int delta) {
  return 2.0 * std::numbers::pi * (kBaseFreqHz + kFreqSlopeHz * delta);
}

double gauss(double t, double sigma) {
  const double z = t / sigma;
  return std::exp(-0.5 * z * z);
}

}  // namespace

double pulse_width_factor(std::uint8_t tc_pgdelay) {
  return 1.0 + kWidthSlope * register_delta(tc_pgdelay);
}

double pulse_value(std::uint8_t tc_pgdelay, double t_s) {
  const int delta = register_delta(tc_pgdelay);
  const double sigma = main_sigma_s(delta);
  return gauss(t_s, sigma) * std::cos(carrier_rad_s(delta) * t_s) -
         kRingAmp * gauss(t_s - kRingDelay * sigma, kRingWidth * sigma);
}

PulseStepper::PulseStepper(std::uint8_t tc_pgdelay, double ts_s)
    : tc_pgdelay_(tc_pgdelay),
      ts_s_(ts_s),
      half_support_s_(pulse_duration_s(tc_pgdelay) / 2.0),
      sigma_s_(main_sigma_s(register_delta(tc_pgdelay))),
      ring_delay_s_(kRingDelay * sigma_s_),
      ring_sigma_s_(kRingWidth * sigma_s_),
      main_step_(ts_s / sigma_s_),
      main_ratio_step_(std::exp(-main_step_ * main_step_)),
      ring_step_(ts_s / ring_sigma_s_),
      ring_ratio_step_(std::exp(-ring_step_ * ring_step_)),
      omega_rad_s_(carrier_rad_s(register_delta(tc_pgdelay))),
      carrier_step_cos_(std::cos(omega_rad_s_ * ts_s)),
      carrier_step_sin_(std::sin(omega_rad_s_ * ts_s)) {
  UWB_EXPECTS(ts_s > 0.0);
}

PulseStepper::Start PulseStepper::start(double t_s, std::size_t n_taps) const {
  UWB_EXPECTS(std::isfinite(t_s));
  // Clip in double: the unclipped bounds of a far-away pulse need not fit
  // an integer type.
  const double first =
      std::max(0.0, std::floor((t_s - half_support_s_) / ts_s_));
  const double last = std::min(static_cast<double>(n_taps) - 1.0,
                               std::ceil((t_s + half_support_s_) / ts_s_));
  Start out;
  if (first > last) return out;
  out.begin = static_cast<std::size_t>(first);
  out.end = static_cast<std::size_t>(last) + 1;

  // Each Gaussian e^(-z^2/2), z = t/sigma, starts at the first tap with its
  // ratio to the next tap, e^(-(z + u/2)*u) for u = Ts/sigma.
  const double t0 = static_cast<double>(out.begin) * ts_s_ - t_s;
  const double z = t0 / sigma_s_;
  const double zr = (t0 - ring_delay_s_) / ring_sigma_s_;
  out.exp_args = {-0.5 * z * z, -(z + 0.5 * main_step_) * main_step_,
                  -0.5 * zr * zr, -(zr + 0.5 * ring_step_) * ring_step_};
  out.phase = omega_rad_s_ * t0;
  return out;
}

std::size_t PulseStepper::step(CVec& taps, const Start& start,
                               const double* exps, double cos_phase,
                               double sin_phase, Complex amplitude) const {
  double main = exps[0];
  double main_ratio = exps[1];
  double ring = exps[2];
  double ring_ratio = exps[3];
  double carrier_cos = cos_phase;
  double carrier_sin = sin_phase;
  for (std::size_t n = start.begin; n < start.end; ++n) {
    taps[n] += amplitude * (main * carrier_cos - kRingAmp * ring);
    main *= main_ratio;
    main_ratio *= main_ratio_step_;
    ring *= ring_ratio;
    ring_ratio *= ring_ratio_step_;
    const double next_cos =
        carrier_cos * carrier_step_cos_ - carrier_sin * carrier_step_sin_;
    carrier_sin =
        carrier_sin * carrier_step_cos_ + carrier_cos * carrier_step_sin_;
    carrier_cos = next_cos;
  }
  return start.end - start.begin;
}

std::size_t PulseStepper::step4(CVec& taps, const Start* starts,
                                const double* exps, const double* cos_phase,
                                const double* sin_phase,
                                const Complex* amplitudes,
                                std::size_t lanes) const {
  // The pulse values of all four lanes over the longest support, then each
  // lane's taps in arrival order. Unused lanes run from zero.
  constexpr std::size_t kMaxSteps = 64;
  std::size_t steps = 0;
  for (std::size_t l = 0; l < lanes; ++l)
    steps = std::max(steps, starts[l].end - starts[l].begin);
  if (steps > kMaxSteps) {  // a sample period far below the pulse width
    std::size_t touched = 0;
    for (std::size_t l = 0; l < lanes; ++l)
      touched += step(taps, starts[l], exps + 4 * l, cos_phase[l],
                      sin_phase[l], amplitudes[l]);
    return touched;
  }
  std::array<double, 24> state{};
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t i = 0; i < 4; ++i) state[4 * i + l] = exps[4 * l + i];
    state[16 + l] = cos_phase[l];
    state[20 + l] = sin_phase[l];
  }
  const double step_values[5] = {main_ratio_step_, ring_ratio_step_,
                                 carrier_step_cos_, carrier_step_sin_,
                                 kRingAmp};
  std::array<double, 4 * kMaxSteps> values;
  simd::pulse_steps4(state.data(), step_values, steps, values.data());
  std::size_t touched = 0;
  for (std::size_t l = 0; l < lanes; ++l) {
    const Start& s = starts[l];
    for (std::size_t n = s.begin; n < s.end; ++n)
      taps[n] += amplitudes[l] * values[4 * (n - s.begin) + l];
    touched += s.end - s.begin;
  }
  return touched;
}

std::size_t PulseStepper::add(CVec& taps, double t_s,
                              Complex amplitude) const {
  const Start s = start(t_s, taps.size());
  std::array<double, 4> exps;
  for (std::size_t i = 0; i < exps.size(); ++i)
    exps[i] = simd::exp(s.exp_args[i]);
  double sin_phase = 0.0;
  double cos_phase = 0.0;
  simd::sincos(s.phase, &sin_phase, &cos_phase);
  return step(taps, s, exps.data(), cos_phase, sin_phase, amplitude);
}

double pulse_duration_s(std::uint8_t tc_pgdelay) {
  const double sigma = kBaseSigmaS * pulse_width_factor(tc_pgdelay);
  // Support [-4.5 sigma, +6 sigma] rounded to a symmetric window.
  return 12.0 * sigma;
}

double pulse_main_lobe_s(std::uint8_t tc_pgdelay) {
  const double sigma = kBaseSigmaS * pulse_width_factor(tc_pgdelay);
  return 2.355 * sigma;  // Gaussian FWHM
}

double pulse_bandwidth_hz(std::uint8_t tc_pgdelay) {
  return 900e6 / pulse_width_factor(tc_pgdelay);
}

CVec sample_pulse_template(std::uint8_t tc_pgdelay, double ts_s) {
  UWB_EXPECTS(ts_s > 0.0);
  const double half = pulse_duration_s(tc_pgdelay) / 2.0;
  const auto half_n = static_cast<std::size_t>(std::ceil(half / ts_s));
  CVec tmpl(2 * half_n + 1);
  for (std::size_t i = 0; i < tmpl.size(); ++i) {
    const double t =
        (static_cast<double>(i) - static_cast<double>(half_n)) * ts_s;
    tmpl[i] = Complex(pulse_value(tc_pgdelay, t), 0.0);
  }
  return tmpl;
}

std::size_t template_centre_index(std::uint8_t tc_pgdelay, double ts_s) {
  UWB_EXPECTS(ts_s > 0.0);
  const double half = pulse_duration_s(tc_pgdelay) / 2.0;
  return static_cast<std::size_t>(std::ceil(half / ts_s));
}

}  // namespace uwb::dw
