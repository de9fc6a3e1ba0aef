// Elementwise helpers on complex signals.
#pragma once

#include "common/types.hpp"

namespace uwb::dsp {

/// |x[i]| for every sample.
RVec magnitude(const CVec& x);

/// Total energy sum |x[i]|^2.
double energy(const CVec& x);

/// Scale to unit energy. No-op on an all-zero signal.
CVec normalize_energy(const CVec& x);

/// Linear interpolation of x at fractional index t (clamped to range).
Complex sample_at(const CVec& x, double t);

}  // namespace uwb::dsp
