// Deterministic random number generation.
//
// All stochastic components take an explicit `Rng&` so that every simulation
// is reproducible from a single seed (no hidden global state, cf. I.2).
//
// The generator is Philox4x32-10 (Salmon et al., "Parallel Random Numbers:
// As Easy as 1, 2, 3", SC'11): counter-based, so word i of a stream is a
// pure function of (seed, i) and a stream is a few words of state that cost
// nothing to seed or copy. Every distribution is written here with its
// formula (DESIGN.md Sect. 7.2), so no draw depends on the C++ standard
// library. Their logarithms, sines and cosines are the in-house
// simd::log and simd::sincos (simd/math.hpp), fixed IEEE operation
// sequences; only exponential(), through std::log1p, still depends on
// libm.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace uwb {

class StreamSeed;

/// Deterministically derive the seed of sub-stream `stream` from a base
/// seed. Pure 64-bit integer mixing (splitmix64 finalizer), so the result
/// is identical on every platform, compiler, and thread schedule — the
/// foundation of the Monte-Carlo engine's determinism contract: trial i of
/// a run seeded with `base` always uses derive_seed(base, i), regardless
/// of how trials are distributed over worker threads.
StreamSeed derive_seed(std::uint64_t base, std::uint64_t stream);

/// A seed that came out of derive_seed, which alone can mint one. It reads
/// as its std::uint64_t value anywhere a plain seed is expected.
class StreamSeed {
 public:
  constexpr operator std::uint64_t() const { return value_; }

 private:
  friend StreamSeed derive_seed(std::uint64_t base, std::uint64_t stream);
  constexpr explicit StreamSeed(std::uint64_t value) : value_(value) {}

  std::uint64_t value_;
};

/// Seeded pseudo-random source with the distributions the simulator needs.
///
/// Block b of the stream seeded s is simd::philox4x32_10({b mod 2³²,
/// b / 2³², 0, 0}, {s mod 2³², s / 2³²}) (simd/math.hpp); its words
/// x0..x3 give the stream's 64-bit words x0 + 2³²·x1, then x2 + 2³²·x3.
/// Every distribution below draws whole words in stream order, and
/// u = unit(bits()) denotes one draw.
class Rng {
 public:
  /// A derived stream: the one way simulation code seeds a generator.
  explicit Rng(StreamSeed seed) : key_(std::uint64_t{seed}) {}
  /// A raw seed: the root stream of a run, a test or a bench. Defined out
  /// of line, so every object that seeds from a raw value references
  /// uwb::Rng::Rng(unsigned long), which the sim-layer symbol check
  /// (tools/check_sim_symbols.py) allows only at the root streams.
  explicit Rng(std::uint64_t seed);

  /// The next 64-bit word of the stream.
  std::uint64_t bits() {
    if (next_ == block_.size()) refill();
    return block_[next_++];
  }

  /// The next out.size() words of the stream, in order: the same words,
  /// and the same stream position after, as that many bits() calls. Whole
  /// blocks come from the vector kernel simd::philox4x32_10.
  void fill(std::span<std::uint64_t> out);

  /// Skip the next n words: the stream position of n bits() calls. With a
  /// copy of the stream, lets a caller draw words ahead of a loop whose
  /// length it learns only by running it.
  void discard(std::uint64_t n);

  /// u = (bits >> 11)·2⁻⁵³: the top 53 bits as a double in [0, 1 − 2⁻⁵³].
  static constexpr double unit(std::uint64_t bits) {
    return static_cast<double>(bits >> 11) * 0x1p-53;
  }

  /// lo + (hi − lo)·u, or the largest double below hi where that rounds up
  /// to hi (as it can for u near 1). Never hi unless lo == hi.
  static double uniform_at(double u, double lo, double hi) {
    const double x = lo + (hi - lo) * u;
    return x < hi ? x : std::nextafter(hi, lo);
  }

  /// −mean·log1p(−u): the exponential of mean `mean` at u.
  static double exponential_at(double u, double mean) {
    return -mean * std::log1p(-u);
  }

  /// Uniform double in [lo, hi): uniform_at(u, lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive) by unbiased rejection: with
  /// n = hi − lo + 1, words below 2⁶⁴ mod n are redrawn and the first
  /// other word w gives lo + (w mod n). The full int64 range takes one
  /// word as it is.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// mean + stddev·z, z standard normal by Marsaglia's polar method: draw
  /// x = 2u₁ − 1, y = 2u₂ − 1 until 0 < s = x² + y² < 1, then
  /// z = x·√(−2 ln s / s) and the spare y·√(−2 ln s / s) serves the next
  /// call, ln being simd::log. Draws nothing, and keeps any spare, when
  /// stddev is 0.
  double normal(double mean, double stddev);

  /// Rayleigh-distributed magnitude with scale sigma:
  /// sigma·√(−2 ln v), v = uniform(1e-300, 1), ln being simd::log.
  double rayleigh(double sigma);

  /// Exponential with given mean: exponential_at(u, mean), by std::log1p.
  double exponential(double mean);

  /// Bernoulli trial: u < probability (one word, even at 0 or 1).
  bool chance(double probability);

  /// Circularly-symmetric complex Gaussian sample with per-component
  /// sigma: {normal(0, sigma), normal(0, sigma)}, one polar pair.
  Complex complex_normal(double sigma);

  /// out[k] = complex_normal(sigma) for every k in order: the same values,
  /// the same words and the same spare. Each block of polar pairs comes
  /// from fill() and takes its logarithms in one simd::log call; a block
  /// draws no more pairs than the samples it still needs, so no word is
  /// drawn that the calls would not draw.
  void complex_normals(double sigma, std::span<Complex> out);

  /// Unit-magnitude complex number with uniform phase:
  /// {cos φ, sin φ}, φ = uniform(0, 2π), by simd::sincos.
  Complex random_phase();

 private:
  /// Compute block counter_ into block_ and advance the counter.
  void refill();

  std::uint64_t key_;
  std::uint64_t counter_ = 0;
  std::array<std::uint64_t, 2> block_{};
  /// Next unread word of block_; block_.size() when it is spent.
  std::size_t next_ = 2;
  /// The polar method's second normal, waiting for the next normal().
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace uwb
