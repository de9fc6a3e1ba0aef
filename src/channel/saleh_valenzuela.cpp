#include "channel/saleh_valenzuela.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/expects.hpp"
#include "common/units.hpp"
#include "simd/math.hpp"
#include "simd/simd.hpp"

namespace uwb::channel {

namespace {

// Rays per vector block: a block's words, arguments and kernel outputs
// live on the stack.
constexpr std::size_t kBlock = 64;

/// The rays of `walk` sorted stably by t0 + excess delay: a counting sort
/// into delay buckets, then an insertion pass. A ray's bucket is monotone
/// in its key, so a ray in an earlier bucket has a smaller key, equal keys
/// share a bucket in draw order, and the insertion pass only reorders rays
/// within a bucket, about one each. Linear in the rays, where merging the
/// clusters' sorted runs into one another moves each ray about three
/// times.
std::vector<DiffuseRay> sort_by_delay(const std::vector<DiffuseRay>& walk,
                                      double t0_s, double window_s) {
  constexpr std::size_t kBuckets = 1024;
  const double buckets_per_s = static_cast<double>(kBuckets) / window_s;
  const auto key = [t0_s](const DiffuseRay& r) {
    return t0_s + r.excess_delay_s;
  };
  // key − t0 lies in [0, window_s] up to rounding, and every step from the
  // key to the bucket index is monotone.
  const auto bucket = [&](const DiffuseRay& r) {
    const double x = (key(r) - t0_s) * buckets_per_s;
    return x < static_cast<double>(kBuckets - 1) ? static_cast<std::size_t>(x)
                                                 : kBuckets - 1;
  };
  std::array<std::uint32_t, kBuckets + 1> first{};
  for (const DiffuseRay& r : walk) ++first[bucket(r) + 1];
  for (std::size_t b = 0; b < kBuckets; ++b) first[b + 1] += first[b];
  std::vector<DiffuseRay> rays(walk.size());
  for (const DiffuseRay& r : walk) rays[first[bucket(r)]++] = r;
  for (std::size_t i = 1; i < rays.size(); ++i) {
    const DiffuseRay ray = rays[i];
    std::size_t j = i;
    for (; j > 0 && key(ray) < key(rays[j - 1]); --j) rays[j] = rays[j - 1];
    rays[j] = ray;
  }
  return rays;
}

}  // namespace

std::vector<DiffuseRay> draw_diffuse_tail(const SalehValenzuelaParams& params,
                                          Rng& rng) {
  return draw_diffuse_tail(params, rng, 0.0);
}

std::vector<DiffuseRay> draw_diffuse_tail(const SalehValenzuelaParams& params,
                                          Rng& rng, double t0_s) {
  UWB_EXPECTS(params.cluster_rate_hz > 0.0);
  UWB_EXPECTS(params.window_s > 0.0);

  // The delay walk, in draw order. Until the blocks below replace it, a
  // ray's amplitude holds its cluster's power e^(−T/Γ) and its ray
  // exponent −τ/γ.
  std::vector<DiffuseRay> walk;
  // Expected arrival count: the first cluster's rays over the window, plus
  // clusters arriving at cluster_rate, each with rays over the rest of the
  // window on average half of it. Twice that is a capacity hint that about
  // 1 default tail in 100 outgrows; the draw itself is unbounded.
  const double window_rays = params.window_s * kRayRateHz;
  const double expected_rays =
      window_rays + 1.0 + params.window_s * params.cluster_rate_hz *
                              (0.5 * window_rays + 1.0);
  walk.reserve(static_cast<std::size_t>(std::min(4096.0, 2.0 * expected_rays)));

  // Each arrival draws one word, as Rng::exponential would. The words come
  // a block at a time from a copy of the stream, which then skips exactly
  // the words the walk used.
  Rng ahead = rng;
  std::array<std::uint64_t, kBlock> words;
  std::size_t next_word = words.size();
  std::uint64_t used = 0;
  const auto exponential = [&](double mean) {
    if (next_word == words.size()) {
      ahead.fill(words);
      next_word = 0;
    }
    ++used;
    return Rng::exponential_at(Rng::unit(words[next_word++]), mean);
  };
  const double ray_mean_s = 1.0 / kRayRateHz;
  const double cluster_mean_s = 1.0 / params.cluster_rate_hz;

  // Cluster arrivals (first cluster pinned at the LOS arrival).
  double cluster_t = 0.0;
  while (cluster_t < params.window_s) {
    const double cluster_power = simd::exp(-cluster_t / kClusterDecayS);
    // Ray arrivals within the cluster (first ray at the cluster start).
    double ray_t = 0.0;
    while (cluster_t + ray_t < params.window_s) {
      if (cluster_t + ray_t > 0.0)  // exclude the LOS instant itself
        walk.push_back(
            {cluster_t + ray_t, {cluster_power, -ray_t / kRayDecayS}});
      ray_t += exponential(ray_mean_s);
    }
    cluster_t += exponential(cluster_mean_s);
  }
  rng.discard(used);
  if (walk.empty()) return {};

  // Mean powers e^(−T/Γ)·e^(−τ/γ), and their total in draw order.
  double mean_total = 0.0;
  for (std::size_t b = 0; b < walk.size(); b += kBlock) {
    const std::size_t n = std::min(kBlock, walk.size() - b);
    std::array<double, kBlock> ray_power;
    for (std::size_t j = 0; j < n; ++j)
      ray_power[j] = walk[b + j].amplitude.imag();
    simd::exp(ray_power.data(), ray_power.data(), n);
    for (std::size_t j = 0; j < n; ++j) {
      const double mean_power = walk[b + j].amplitude.real() * ray_power[j];
      walk[b + j].amplitude = {mean_power, 0.0};
      mean_total += mean_power;
    }
  }

  // Normalise the *mean* power profile to the requested total, then apply
  // per-ray Rayleigh fading so the realised total still fluctuates. Each
  // ray draws two words, as Rng::rayleigh then Rng::random_phase would.
  const double scale = db_to_linear(params.total_power_rel_db) / mean_total;
  for (std::size_t b = 0; b < walk.size(); b += kBlock) {
    const std::size_t n = std::min(kBlock, walk.size() - b);
    std::array<std::uint64_t, 2 * kBlock> pair_words;
    rng.fill({pair_words.data(), 2 * n});
    std::array<double, kBlock> ln_v, phase, sin_phase, cos_phase;
    for (std::size_t j = 0; j < n; ++j) {
      ln_v[j] = Rng::uniform_at(Rng::unit(pair_words[2 * j]), 1e-300, 1.0);
      phase[j] = Rng::uniform_at(Rng::unit(pair_words[2 * j + 1]), 0.0,
                                 2.0 * std::numbers::pi);
    }
    simd::log(ln_v.data(), ln_v.data(), n);
    simd::sincos(phase.data(), sin_phase.data(), cos_phase.data(), n);
    for (std::size_t j = 0; j < n; ++j) {
      DiffuseRay& ray = walk[b + j];
      const double mean_amp = std::sqrt(ray.amplitude.real() * scale);
      // Rayleigh with E[a^2] = mean_amp^2 -> sigma = mean_amp / sqrt(2).
      const double a = mean_amp / std::sqrt(2.0) * std::sqrt(-2.0 * ln_v[j]);
      ray.amplitude = Complex(cos_phase[j], sin_phase[j]) * a;
    }
  }
  return sort_by_delay(walk, t0_s, params.window_s);
}

}  // namespace uwb::channel
