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

std::uint32_t lo32(std::uint64_t x) { return static_cast<std::uint32_t>(x); }
std::uint32_t hi32(std::uint64_t x) {
  return static_cast<std::uint32_t>(x >> 32);
}

}  // namespace

StreamSeed derive_seed(std::uint64_t base, std::uint64_t stream) {
  // Advance the base by the golden-gamma increment per stream index, then
  // finalize twice so nearby (base, stream) pairs decorrelate fully.
  const std::uint64_t z = base + (stream + 1) * 0x9E3779B97F4A7C15ULL;
  return StreamSeed(mix64(mix64(z) ^ 0x8BADF00D5AFEC0DEULL));
}

std::array<std::uint32_t, 4> philox4x32_10(std::array<std::uint32_t, 4> ctr,
                                           std::array<std::uint32_t, 2> key) {
  // Round multipliers and Weyl key increments of Salmon et al. (2011).
  constexpr std::uint64_t kM0 = 0xD2511F53;
  constexpr std::uint64_t kM1 = 0xCD9E8D57;
  constexpr std::uint32_t kW0 = 0x9E3779B9;
  constexpr std::uint32_t kW1 = 0xBB67AE85;
  for (int round = 0; round < 10; ++round) {
    if (round > 0) {
      key[0] += kW0;
      key[1] += kW1;
    }
    // 32×32→64-bit products: their high halves mix, their low halves move.
    const std::uint64_t p0 = kM0 * ctr[0];
    const std::uint64_t p1 = kM1 * ctr[2];
    ctr = {hi32(p1) ^ ctr[1] ^ key[0], lo32(p1), hi32(p0) ^ ctr[3] ^ key[1],
           lo32(p0)};
  }
  return ctr;
}

Rng::Rng(std::uint64_t seed) : key_(seed) {}

void Rng::refill() {
  const std::array<std::uint32_t, 4> x = philox4x32_10(
      {lo32(counter_), hi32(counter_), 0, 0}, {lo32(key_), hi32(key_)});
  ++counter_;
  block_[0] = x[0] | (std::uint64_t{x[1]} << 32);
  block_[1] = x[2] | (std::uint64_t{x[3]} << 32);
  next_ = 0;
}

double Rng::uniform_at(double u, double lo, double hi) {
  const double x = lo + (hi - lo) * u;
  return x < hi ? x : std::nextafter(hi, lo);
}

double Rng::uniform(double lo, double hi) {
  UWB_EXPECTS(lo <= hi);
  return uniform_at(unit(bits()), lo, hi);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  UWB_EXPECTS(lo <= hi);
  // n wraps to 0 for the full range, where every word is a value.
  const std::uint64_t n =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  std::uint64_t w = bits();
  if (n != 0) {
    // 2⁶⁴ mod n: the words left over after the last whole copy of [0, n).
    const std::uint64_t reject_below = (0 - n) % n;
    while (w < reject_below) w = bits();
    w %= n;
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + w);
}

double Rng::normal(double mean, double stddev) {
  UWB_EXPECTS(stddev >= 0.0);
  if (stddev == 0.0) return mean;
  if (has_spare_) {
    has_spare_ = false;
    return mean + stddev * spare_;
  }
  double x = 0.0;
  double y = 0.0;
  double s = 0.0;
  do {
    x = 2.0 * unit(bits()) - 1.0;
    y = 2.0 * unit(bits()) - 1.0;
    s = x * x + y * y;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = y * f;
  has_spare_ = true;
  return mean + stddev * (x * f);
}

double Rng::rayleigh(double sigma) {
  UWB_EXPECTS(sigma >= 0.0);
  const double u = uniform(1e-300, 1.0);
  return sigma * std::sqrt(-2.0 * std::log(u));
}

double Rng::exponential(double mean) {
  UWB_EXPECTS(mean > 0.0);
  return -mean * std::log1p(-unit(bits()));
}

bool Rng::chance(double probability) {
  UWB_EXPECTS(probability >= 0.0 && probability <= 1.0);
  return unit(bits()) < probability;
}

Complex Rng::complex_normal(double sigma) {
  // Braced initialisers evaluate left to right: real part first.
  return {normal(0.0, sigma), normal(0.0, sigma)};
}

Complex Rng::random_phase() {
  const double phi = uniform(0.0, 2.0 * std::numbers::pi);
  return {std::cos(phi), std::sin(phi)};
}

}  // namespace uwb
