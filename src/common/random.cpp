#include "common/random.hpp"

#include <cmath>
#include <numbers>

#include "common/expects.hpp"

namespace uwb {

namespace {

// splitmix64 finalizer (Steele et al., "Fast splittable pseudorandom number
// generators"): a bijective avalanche mix on 64 bits.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

StreamSeed derive_seed(std::uint64_t base, std::uint64_t stream) {
  // Advance the base by the golden-gamma increment per stream index, then
  // finalize twice so nearby (base, stream) pairs decorrelate fully.
  const std::uint64_t z = base + (stream + 1) * 0x9E3779B97F4A7C15ULL;
  return StreamSeed(mix64(mix64(z) ^ 0x8BADF00D5AFEC0DEULL));
}

Rng::Rng(std::uint64_t seed) : engine_(seed) {}

double Rng::uniform(double lo, double hi) {
  UWB_EXPECTS(lo <= hi);
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  UWB_EXPECTS(lo <= hi);
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::normal(double mean, double stddev) {
  UWB_EXPECTS(stddev >= 0.0);
  if (stddev == 0.0) return mean;
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::rayleigh(double sigma) {
  UWB_EXPECTS(sigma >= 0.0);
  const double u = uniform(1e-300, 1.0);
  return sigma * std::sqrt(-2.0 * std::log(u));
}

double Rng::exponential(double mean) {
  UWB_EXPECTS(mean > 0.0);
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

int Rng::poisson(double mean) {
  UWB_EXPECTS(mean >= 0.0);
  if (mean == 0.0) return 0;
  return std::poisson_distribution<int>(mean)(engine_);
}

bool Rng::chance(double probability) {
  UWB_EXPECTS(probability >= 0.0 && probability <= 1.0);
  return std::bernoulli_distribution(probability)(engine_);
}

Complex Rng::complex_normal(double sigma) {
  return {normal(0.0, sigma), normal(0.0, sigma)};
}

Complex Rng::random_phase() {
  const double phi = uniform(0.0, 2.0 * std::numbers::pi);
  return {std::cos(phi), std::sin(phi)};
}

Rng Rng::fork() { return Rng(engine_()); }

}  // namespace uwb
