#include "loc/tracker.hpp"

#include "common/expects.hpp"

namespace uwb::loc {

namespace {
/// Velocity correction gain [0..1).
constexpr double kBeta = 0.15;
}  // namespace

PositionTracker::PositionTracker(TrackerParams params) : params_(params) {
  UWB_EXPECTS(params.alpha > 0.0 && params.alpha <= 1.0);
  UWB_EXPECTS(params.gate_m > 0.0);
  UWB_EXPECTS(params.max_rejections >= 1);
}

geom::Vec2 PositionTracker::update(geom::Vec2 measurement, double dt_s) {
  UWB_EXPECTS(dt_s > 0.0);
  if (!initialized_) {
    position_ = measurement;
    velocity_ = {0.0, 0.0};
    initialized_ = true;
    rejected_streak_ = 0;
    return position_;
  }

  const geom::Vec2 predicted = position_ + velocity_ * dt_s;
  const geom::Vec2 residual = measurement - predicted;

  if (geom::norm(residual) > params_.gate_m) {
    ++rejected_total_;
    if (++rejected_streak_ >= params_.max_rejections) {
      // Too many rejections in a row: the track is lost, re-seed.
      initialized_ = false;
      return update(measurement, dt_s);
    }
    position_ = predicted;  // coast on the model
    return position_;
  }

  rejected_streak_ = 0;
  position_ = predicted + residual * params_.alpha;
  velocity_ = velocity_ + residual * (kBeta / dt_s);
  return position_;
}

void PositionTracker::reset() {
  initialized_ = false;
  velocity_ = {0.0, 0.0};
  rejected_streak_ = 0;
}

}  // namespace uwb::loc
