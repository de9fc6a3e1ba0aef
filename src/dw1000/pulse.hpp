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

#include <cstdint>

#include "common/types.hpp"

namespace uwb::dw {

/// Width multiplier of the main lobe relative to the default register 0x93.
/// Monotonically increasing in the register value; 1.0 at the default.
double pulse_width_factor(std::uint8_t tc_pgdelay);

/// Continuous pulse shape s(t) for a register value; peak ~1.0 at t = 0,
/// t in seconds. Deterministic and cheap (a few exp() calls).
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

/// Sampled template at spacing `ts_s` (odd length, peak at the centre
/// sample). Suitable for MatchedFilter construction; not normalised.
CVec sample_pulse_template(std::uint8_t tc_pgdelay, double ts_s);

/// Index of the centre (peak) sample of sample_pulse_template's output.
std::size_t template_centre_index(std::uint8_t tc_pgdelay, double ts_s);

/// Thread-locally memoised sample_pulse_template(). The returned reference
/// stays valid for the lifetime of the calling thread; repeated requests
/// for the same (register, Ts) pair — e.g. one scenario construction per
/// Monte-Carlo trial — stop re-sampling the pulse. Never shared across
/// threads, so no synchronisation is involved.
const CVec& cached_pulse_template(std::uint8_t tc_pgdelay, double ts_s);

/// Hit/miss counters of the calling thread's pulse-template cache.
struct PulseCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
};
PulseCacheStats pulse_cache_stats();

/// Drop the calling thread's cached templates (tests / memory pressure).
void clear_pulse_cache();

}  // namespace uwb::dw
