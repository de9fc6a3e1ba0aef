#include "loc/multilateration.hpp"

#include <cmath>

#include "common/expects.hpp"

namespace uwb::loc {

namespace {
/// Stop when the position update is below this step [m].
constexpr double kToleranceM = 1e-6;
}  // namespace

PositionFix multilaterate(const std::vector<RangeObservation>& observations,
                          const SolverOptions& options) {
  UWB_EXPECTS(observations.size() >= 3);
  geom::Vec2 centroid;
  for (const RangeObservation& o : observations) centroid = centroid + o.anchor;
  centroid = centroid / static_cast<double>(observations.size());
  return multilaterate_from(observations, centroid, options);
}

PositionFix multilaterate_from(const std::vector<RangeObservation>& observations,
                               geom::Vec2 initial,
                               const SolverOptions& options) {
  UWB_EXPECTS(observations.size() >= 3);
  UWB_EXPECTS(options.max_iterations >= 1);

  PositionFix fix;
  fix.position = initial;
  for (int it = 0; it < options.max_iterations; ++it) {
    fix.iterations = it + 1;
    // Gauss-Newton step on f_i(p) = |p - a_i| - d_i with J_i = (p - a_i)/|.|.
    double jtj00 = 0.0, jtj01 = 0.0, jtj11 = 0.0;
    double jtr0 = 0.0, jtr1 = 0.0;
    for (const RangeObservation& o : observations) {
      const geom::Vec2 diff = fix.position - o.anchor;
      const double range = geom::norm(diff);
      if (range < 1e-9) continue;  // sitting on an anchor: skip its gradient
      const double jx = diff.x / range;
      const double jy = diff.y / range;
      const double resid = range - o.distance_m;
      jtj00 += jx * jx;
      jtj01 += jx * jy;
      jtj11 += jy * jy;
      jtr0 += jx * resid;
      jtr1 += jy * resid;
    }
    const double det = jtj00 * jtj11 - jtj01 * jtj01;
    if (std::abs(det) < 1e-12) break;  // degenerate geometry
    const double dx = (jtj11 * jtr0 - jtj01 * jtr1) / det;
    const double dy = (jtj00 * jtr1 - jtj01 * jtr0) / det;
    fix.position = fix.position - geom::Vec2{dx, dy};
    if (std::hypot(dx, dy) < kToleranceM) {
      fix.converged = true;
      break;
    }
  }

  double ss = 0.0;
  for (const RangeObservation& o : observations) {
    const double resid = geom::distance(fix.position, o.anchor) - o.distance_m;
    ss += resid * resid;
  }
  fix.residual_rms_m = std::sqrt(ss / static_cast<double>(observations.size()));
  return fix;
}

}  // namespace uwb::loc
