// Peak search and noise-floor estimation on CIR-like signals.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace uwb::dsp {

/// A detected local maximum.
struct Peak {
  std::size_t index = 0;
  double magnitude = 0.0;
};

/// Index of the sample with the largest magnitude.
std::size_t argmax_abs(const CVec& x);

/// All local maxima of |x| with magnitude >= threshold, at least
/// `min_distance` samples apart (greedy, strongest first).
std::vector<Peak> local_maxima(const CVec& x, double threshold,
                               std::size_t min_distance);

/// Estimate the per-component noise sigma of a complex signal whose samples
/// are mostly circular Gaussian noise, via the median of the Rayleigh
/// magnitudes (robust against a few strong signal taps). `scratch` is the
/// working buffer (resized to x.size(), contents left unspecified); a
/// caller that estimates often passes the same one to allocate only once.
double noise_sigma_estimate(const CVec& x, RVec& scratch);

}  // namespace uwb::dsp
