// Receive timestamping model.
//
// The DW1000's leading-edge detection (LDE) reports the RMARKER arrival with
// sub-nanosecond precision. We model the LDE error statistically: zero-mean
// Gaussian jitter whose sigma grows with the transmitted pulse width (wider
// pulse => flatter leading edge => more jitter), calibrated against the
// paper's Sect. V SS-TWR precision figures (sigma ~= 2.2-2.8 cm).
//
// `detect_first_path` is the CIR-space equivalent used to align the CIR with
// the TWR distance (paper Sect. IV step 1).
#pragma once

#include <cstdint>

#include "common/random.hpp"
#include "common/types.hpp"
#include "dw1000/clock.hpp"

namespace uwb::dw {

/// LDE jitter (1 sigma) with the default pulse shape [s]. Calibrated so
/// SS-TWR at 3 m gives sigma ~2.3 cm as measured in the paper (Sect. V).
inline constexpr double kBaseJitterS = 105e-12;

/// RX timestamp jitter sigma for a given pulse shape.
double rx_timestamp_sigma_s(std::uint8_t tc_pgdelay);

/// Draw a noisy RX timestamp around the true RMARKER arrival device time.
DwTimestamp noisy_rx_timestamp(std::uint8_t tc_pgdelay,
                               DwTimestamp true_arrival, Rng& rng);

/// First-path detection on a CIR magnitude profile: the earliest sample that
/// exceeds max(noise_floor_factor * noise_sigma, relative_factor * peak).
/// Returns a fractional tap index (linear interpolation of the crossing).
double detect_first_path(const CVec& cir_taps, double noise_floor_factor = 8.0,
                         double relative_factor = 0.25);

}  // namespace uwb::dw
