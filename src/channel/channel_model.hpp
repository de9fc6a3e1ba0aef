// Full channel realisation: Eq. 1 of the paper,
//   h(t) = sum_k alpha_k delta(t - tau_k) + nu(t)
// with deterministic specular components alpha_k from floor-plan geometry
// (image-source method) and the diffuse term nu(t) from a Saleh-Valenzuela
// tail attached to the first arrival.
#pragma once

#include <vector>

#include "channel/saleh_valenzuela.hpp"
#include "common/random.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "geom/grid.hpp"
#include "geom/room.hpp"

namespace uwb::channel {

/// One resolvable propagation component.
struct Tap {
  /// Absolute propagation delay TX -> RX [s].
  double delay_s = 0.0;
  /// Complex amplitude (relative to unit TX amplitude at the 1 m reference).
  Complex amplitude;
  /// True for deterministic (specular/LOS) components.
  bool deterministic = false;
  /// Bounce order (0 = LOS) for deterministic taps.
  int order = 0;
};

/// A drawn channel between one TX and one RX.
struct ChannelRealization {
  /// Taps sorted by increasing delay; taps with equal delays keep
  /// image-source order, then draw order. The first deterministic tap is the
  /// direct path (possibly attenuated by obstacles).
  std::vector<Tap> taps;
  /// Propagation delay of the geometric direct path [s] (even if blocked).
  double los_delay_s = 0.0;
};

/// First stage of a realisation: the deterministic taps alpha_k of Eq. 1
/// only, before the diffuse term nu(t) is drawn.
struct SpecularStage {
  /// Specular taps in image-source order (the LOS tap first, unsorted);
  /// `los_delay_s` is already final.
  ChannelRealization channel;
  /// Amplitude the diffuse tail is scaled to: the LOS tap's magnitude, or
  /// the unobstructed direct-path amplitude when that magnitude is zero.
  double diffuse_ref_amp = 0.0;
};

/// Channel model configuration.
struct ChannelModelParams {
  /// Log-distance path-loss exponent (indoor LOS).
  double path_loss_exponent = 1.8;
  /// Path loss at the 1 m reference distance [dB]. With unit TX amplitude
  /// the LOS amplitude at 1 m is 10^(-ref/20).
  double reference_loss_db = 0.0;
  /// Per-path complex amplitude jitter (std-dev of a multiplicative
  /// lognormal-ish fluctuation in dB) modelling small-scale variation of
  /// specular components between rounds.
  double specular_fading_db = 1.0;
  /// Maximum image-source reflection order (0 disables specular MPCs).
  int max_reflection_order = 1;
  /// Include the Saleh-Valenzuela diffuse tail.
  bool enable_diffuse = true;
  SalehValenzuelaParams diffuse;
};

/// Generates channel realisations for node pairs placed in a Room.
class ChannelModel {
 public:
  /// Takes the room by value and indexes its obstacles once: the room is
  /// immutable from here on, so the grid stays valid for every realization.
  ChannelModel(geom::Room room, ChannelModelParams params);

  /// Draw a realisation for a TX at `tx` and an RX at `rx` [m]: exactly
  /// complete_diffuse(realize_specular(tx, rx, rng), rng).
  ChannelRealization realize(geom::Vec2 tx, geom::Vec2 rx, Rng& rng) const;

  /// Stage 1 of realize(): the specular taps, each drawing its fading and
  /// phase from `rng`. Enough to decide whether a receiver can detect the
  /// link (see sim::Medium) without paying for the diffuse tail. The
  /// image-source solve is fresh per call, its obstruction losses from the
  /// room's obstacle grid.
  SpecularStage realize_specular(geom::Vec2 tx, geom::Vec2 rx, Rng& rng) const;

  /// Stage 2 of realize(): appends the diffuse tail, drawn from `rng` where
  /// the specular stage left it, and sorts the taps by delay (stable: ties
  /// keep image-source order, then draw order).
  ChannelRealization complete_diffuse(SpecularStage stage, Rng& rng) const;

  /// Upper bound on the TX-RX distance at which a specular tap can still
  /// reach `threshold_amp`. Every specular path is at least as long as the
  /// direct path and only adds reflection/obstruction loss, so the bound
  /// follows from the log-distance law of the unobstructed LOS component
  /// alone. Under the Eq. 1 detectability rule (only specular taps decide
  /// detection) this bounds every detectable link; diffuse rays, whose
  /// Rayleigh magnitudes are unbounded, play no part. `margin_db` is
  /// headroom for the specular fading draw (16 dB = 16 sigma at the default
  /// 1 dB fading — astronomically safe). Returns +infinity (no finite
  /// bound) when the threshold or the path-loss exponent make the law
  /// non-invertible.
  Meters max_detectable_range(double threshold_amp, double margin_db) const;

  const geom::Room& room() const { return room_; }
  const ChannelModelParams& params() const { return params_; }

 private:
  geom::Room room_;
  geom::UniformGrid obstacle_grid_;  // room_.obstacle_grid()
  ChannelModelParams params_;
};

}  // namespace uwb::channel
