#include "common/random.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/expects.hpp"
#include "simd/math.hpp"
#include "simd/simd.hpp"

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

Rng::Rng(std::uint64_t seed) : key_(seed) {}

void Rng::refill() {
  const std::array<std::uint32_t, 4> x = simd::philox4x32_10(
      {lo32(counter_), hi32(counter_), 0, 0}, {lo32(key_), hi32(key_)});
  ++counter_;
  block_[0] = x[0] | (std::uint64_t{x[1]} << 32);
  block_[1] = x[2] | (std::uint64_t{x[3]} << 32);
  next_ = 0;
}

void Rng::fill(std::span<std::uint64_t> out) {
  std::size_t i = 0;
  while (i < out.size() && next_ < block_.size()) out[i++] = block_[next_++];
  const std::size_t blocks = (out.size() - i) / 2;
  simd::philox4x32_10(key_, counter_, out.data() + i, blocks);
  counter_ += blocks;
  i += 2 * blocks;
  if (i < out.size()) out[i] = bits();
}

void Rng::discard(std::uint64_t n) {
  const std::uint64_t buffered = block_.size() - next_;
  if (n <= buffered) {
    next_ += n;
    return;
  }
  n -= buffered;
  counter_ += n / 2;
  next_ = block_.size();
  if (n % 2 == 1) (void)bits();
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
  const double f = std::sqrt(-2.0 * simd::log(s) / s);
  spare_ = y * f;
  has_spare_ = true;
  return mean + stddev * (x * f);
}

double Rng::rayleigh(double sigma) {
  UWB_EXPECTS(sigma >= 0.0);
  const double u = uniform(1e-300, 1.0);
  return sigma * std::sqrt(-2.0 * simd::log(u));
}

double Rng::exponential(double mean) {
  UWB_EXPECTS(mean > 0.0);
  return exponential_at(unit(bits()), mean);
}

bool Rng::chance(double probability) {
  UWB_EXPECTS(probability >= 0.0 && probability <= 1.0);
  return unit(bits()) < probability;
}

Complex Rng::complex_normal(double sigma) {
  // Braced initialisers evaluate left to right: real part first.
  return {normal(0.0, sigma), normal(0.0, sigma)};
}

void Rng::complex_normals(double sigma, std::span<Complex> out) {
  UWB_EXPECTS(sigma >= 0.0);
  if (sigma == 0.0) {
    std::fill(out.begin(), out.end(), Complex{});
    return;
  }
  // The normals in call order: real, imaginary, real, ... (std::complex
  // is two doubles, real first).
  double* z = reinterpret_cast<double*>(out.data());
  const std::size_t count = 2 * out.size();
  std::size_t i = 0;
  if (count > 0 && has_spare_) {
    z[i++] = spare_;
    has_spare_ = false;
  }
  constexpr std::size_t kBlock = 64;
  while (i < count) {
    // At most one accepted pair per pair drawn, and none drawn beyond the
    // pairs still needed: exactly the pairs the scalar loop draws.
    const std::size_t pairs = std::min(kBlock, (count - i + 1) / 2);
    std::array<std::uint64_t, 2 * kBlock> words;
    fill({words.data(), 2 * pairs});
    std::array<double, kBlock> xs, ys, ss, ln_s;
    std::size_t accepted = 0;
    for (std::size_t p = 0; p < pairs; ++p) {
      const double x = 2.0 * unit(words[2 * p]) - 1.0;
      const double y = 2.0 * unit(words[2 * p + 1]) - 1.0;
      const double s = x * x + y * y;
      if (s >= 1.0 || s == 0.0) continue;
      xs[accepted] = x;
      ys[accepted] = y;
      ss[accepted] = s;
      ++accepted;
    }
    simd::log(ss.data(), ln_s.data(), accepted);
    for (std::size_t a = 0; a < accepted; ++a) {
      const double f = std::sqrt(-2.0 * ln_s[a] / ss[a]);
      z[i++] = xs[a] * f;
      if (i < count) {
        z[i++] = ys[a] * f;
      } else {
        spare_ = ys[a] * f;
        has_spare_ = true;
      }
    }
  }
  for (std::size_t k = 0; k < count; ++k) z[k] = 0.0 + sigma * z[k];
}

Complex Rng::random_phase() {
  const double phi = uniform(0.0, 2.0 * std::numbers::pi);
  double s = 0.0;
  double c = 0.0;
  simd::sincos(phi, &s, &c);
  return {c, s};
}

}  // namespace uwb
