#include "channel/channel_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "channel/path_loss.hpp"
#include "common/constants.hpp"
#include "common/expects.hpp"
#include "geom/image_source.hpp"

namespace uwb::channel {

ChannelModel::ChannelModel(geom::Room room, ChannelModelParams params)
    : room_(std::move(room)),
      obstacle_grid_(room_.obstacle_grid()),
      params_(params) {
  UWB_EXPECTS(params.path_loss_exponent >= 0.0);
  UWB_EXPECTS(params.max_reflection_order >= 0 &&
              params.max_reflection_order <= 2);
  UWB_EXPECTS(params.specular_fading_db >= 0.0);
}

ChannelRealization ChannelModel::realize(geom::Vec2 tx, geom::Vec2 rx,
                                         Rng& rng) const {
  return complete_diffuse(realize_specular(tx, rx, rng), rng);
}

SpecularStage ChannelModel::realize_specular(geom::Vec2 tx, geom::Vec2 rx,
                                             Rng& rng) const {
  UWB_EXPECTS(geom::distance(tx, rx) > 0.0);
  SpecularStage out;

  const std::vector<geom::SpecularPath> specular = geom::compute_paths(
      room_, obstacle_grid_, tx, rx, params_.max_reflection_order);
  UWB_ENSURES(!specular.empty());
  out.channel.los_delay_s = specular.front().length_m / k::c_air;
  out.channel.taps.reserve(specular.size());

  double los_amp = 0.0;
  for (const geom::SpecularPath& p : specular) {
    const double loss_db =
        log_distance_loss_db(p.length_m, params_.path_loss_exponent,
                             params_.reference_loss_db) +
        p.reflection_loss_db + p.obstruction_loss_db +
        rng.normal(0.0, params_.specular_fading_db);
    Tap tap;
    tap.delay_s = p.length_m / k::c_air;
    tap.amplitude = rng.random_phase() * loss_db_to_amplitude(loss_db);
    tap.deterministic = true;
    tap.order = p.order;
    if (p.order == 0) los_amp = std::abs(tap.amplitude);
    out.channel.taps.push_back(tap);
  }

  // Diffuse power is defined relative to the (unobstructed) direct path.
  out.diffuse_ref_amp =
      los_amp > 0.0
          ? los_amp
          : loss_db_to_amplitude(log_distance_loss_db(
                specular.front().length_m, params_.path_loss_exponent,
                params_.reference_loss_db));
  return out;
}

ChannelRealization ChannelModel::complete_diffuse(SpecularStage stage,
                                                  Rng& rng) const {
  ChannelRealization out = std::move(stage.channel);
  if (params_.enable_diffuse) {
    const std::vector<DiffuseRay> rays =
        draw_diffuse_tail(params_.diffuse, rng);
    out.taps.reserve(out.taps.size() + rays.size());
    for (const DiffuseRay& ray : rays) {
      Tap tap;
      tap.delay_s = out.los_delay_s + ray.excess_delay_s;
      tap.amplitude = ray.amplitude * stage.diffuse_ref_amp;
      tap.deterministic = false;
      out.taps.push_back(tap);
    }
  }

  // Stable: taps with equal delays keep image-source order, then draw
  // order, on every standard library.
  std::stable_sort(
      out.taps.begin(), out.taps.end(),
      [](const Tap& a, const Tap& b) { return a.delay_s < b.delay_s; });
  return out;
}

Meters ChannelModel::max_detectable_range(double threshold_amp,
                                          double margin_db) const {
  if (!(threshold_amp > 0.0) || !(params_.path_loss_exponent > 0.0)) {
    return Meters{std::numeric_limits<double>::infinity()};
  }
  // Best-case LOS amplitude at distance d (with margin_db of fading
  // headroom): 10^((margin - ref)/20) * d^(-n/2). Solve amp == threshold
  // for d.
  const double numer =
      std::pow(10.0, (margin_db - params_.reference_loss_db) / 20.0);
  const double d =
      std::pow(numer / threshold_amp, 2.0 / params_.path_loss_exponent);
  if (!std::isfinite(d)) {
    return Meters{std::numeric_limits<double>::infinity()};
  }
  return Meters{d};
}

}  // namespace uwb::channel
