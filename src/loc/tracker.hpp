// Position tracking across fixes (extension).
//
// Concurrent ranging gives one multilateration fix per round; a mobile tag
// benefits from smoothing consecutive fixes. This is a gated alpha-beta
// (g-h) filter with a constant-velocity model — deliberately simple, cheap
// enough for the tag itself, and robust against the occasional multipath
// outlier fix.
#pragma once

#include "geom/vec2.hpp"

namespace uwb::loc {

struct TrackerParams {
  /// Position correction gain (0..1]. The velocity correction gain beta is
  /// a constant of tracker.cpp.
  double alpha = 0.5;
  /// Fixes farther than this from the prediction are rejected as outliers
  /// (after initialisation).
  double gate_m = 3.0;
  /// Consecutive rejections after which the filter re-initialises.
  int max_rejections = 3;
};

class PositionTracker {
 public:
  PositionTracker() = default;
  explicit PositionTracker(TrackerParams params);

  /// Feed one fix taken `dt_s` after the previous one. Returns the filtered
  /// position (the raw measurement for the very first fix).
  geom::Vec2 update(geom::Vec2 measurement, double dt_s);

  bool initialized() const { return initialized_; }
  geom::Vec2 position() const { return position_; }
  geom::Vec2 velocity() const { return velocity_; }
  /// Total measurements rejected by the gate.
  int rejected_count() const { return rejected_total_; }

  void reset();

 private:
  TrackerParams params_;
  bool initialized_ = false;
  geom::Vec2 position_;
  geom::Vec2 velocity_;
  int rejected_streak_ = 0;
  int rejected_total_ = 0;
};

}  // namespace uwb::loc
