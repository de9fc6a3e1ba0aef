// Saleh-Valenzuela diffuse multipath generator.
//
// Models the nondeterministic term nu(t) of the paper's channel model
// (Eq. 1): higher-order reflections and scattering arriving as Poisson ray
// clusters with doubly-exponential power decay and Rayleigh amplitudes.
#pragma once

#include <vector>

#include "common/random.hpp"
#include "common/types.hpp"

namespace uwb::channel {

/// One diffuse ray.
struct DiffuseRay {
  /// Excess delay relative to the first (LOS) arrival [s].
  double excess_delay_s = 0.0;
  /// Complex amplitude, relative to a unit-amplitude LOS ray.
  Complex amplitude;
};

/// Ray arrival rate within a cluster [1/s] (lambda).
inline constexpr double kRayRateHz = 1.54e9;
/// Cluster power decay constant [s] (Gamma).
inline constexpr double kClusterDecayS = 22.61e-9;
/// Ray power decay constant [s] (gamma).
inline constexpr double kRayDecayS = 12.53e-9;

/// Saleh-Valenzuela parameters. Defaults, with the constants above,
/// approximate an indoor office (IEEE 802.15.4a CM1-like orders of
/// magnitude).
struct SalehValenzuelaParams {
  /// Cluster arrival rate [1/s] (Lambda).
  double cluster_rate_hz = 0.047e9;
  /// Total diffuse power relative to the LOS ray power [dB] (negative).
  /// -9 dB corresponds to a moderate indoor LOS Rician K-factor; NLOS
  /// studies override this upward.
  double total_power_rel_db = -9.0;
  /// Generation window after the first arrival [s].
  double window_s = 120e-9;
};

/// Draw a diffuse-tail realisation. The returned rays carry excess delays in
/// (0, window_s] and complex amplitudes scaled so the *expected* total
/// diffuse power equals `total_power_rel_db` relative to a unit LOS ray.
/// They come sorted by excess delay; equal delays keep draw order.
///
/// The draw: a scalar walk of Poisson cluster and ray arrivals (one
/// Rng::exponential each), then, per ray in draw order, a Rayleigh
/// magnitude and a uniform phase from two words, computed in blocks of
/// bulk words with simd::exp, simd::log and simd::sincos. Each ray equals
/// Rng::rayleigh(σ)·Rng::random_phase() bit for bit.
std::vector<DiffuseRay> draw_diffuse_tail(const SalehValenzuelaParams& params,
                                          Rng& rng);

/// The same draw, its rays sorted by the absolute delay t0_s +
/// excess_delay_s as rounded in double, equal ones in draw order: the
/// order ChannelModel::complete_diffuse merges with the specular taps at
/// t0_s = the LOS delay.
std::vector<DiffuseRay> draw_diffuse_tail(const SalehValenzuelaParams& params,
                                          Rng& rng, double t0_s);

}  // namespace uwb::channel
