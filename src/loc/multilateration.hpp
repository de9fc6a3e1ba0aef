// Range-based 2-D position estimation (Gauss-Newton least squares).
//
// The paper's stated future work is "an efficient cooperative or
// anchor-based localization system" on top of concurrent ranging; this
// module provides the position solver for that extension.
#pragma once

#include <vector>

#include "geom/vec2.hpp"

namespace uwb::loc {

/// One anchor observation: a known position and a measured distance to it.
struct RangeObservation {
  geom::Vec2 anchor;
  double distance_m = 0.0;
};

struct SolverOptions {
  int max_iterations = 50;
};

struct PositionFix {
  geom::Vec2 position;
  /// RMS of the range residuals at the solution [m].
  double residual_rms_m = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Least-squares position from >= 3 range observations, starting from the
/// anchor centroid (or `initial` if provided).
PositionFix multilaterate(const std::vector<RangeObservation>& observations,
                          const SolverOptions& options = {});

PositionFix multilaterate_from(const std::vector<RangeObservation>& observations,
                               geom::Vec2 initial,
                               const SolverOptions& options = {});

}  // namespace uwb::loc
