// Deterministic random number generation.
//
// All stochastic components take an explicit `Rng&` so that every simulation
// is reproducible from a single seed (no hidden global state, cf. I.2).
#pragma once

#include <cstdint>
#include <random>

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
class Rng {
 public:
  /// A derived stream: the one way simulation code seeds a generator.
  explicit Rng(StreamSeed seed) : engine_(std::uint64_t{seed}) {}
  /// A raw seed: the root stream of a run, a test or a bench. Defined out
  /// of line, so every object that seeds from a raw value references
  /// uwb::Rng::Rng(unsigned long), which the sim-layer symbol check
  /// (tools/check_sim_symbols.py) allows only at the root streams.
  explicit Rng(std::uint64_t seed);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Rayleigh-distributed magnitude with scale sigma.
  double rayleigh(double sigma);

  /// Exponential with given mean.
  double exponential(double mean);

  /// Poisson-distributed count with given mean.
  int poisson(double mean);

  /// Bernoulli trial.
  bool chance(double probability);

  /// Circularly-symmetric complex Gaussian sample with per-component sigma.
  Complex complex_normal(double sigma);

  /// Unit-magnitude complex number with uniform phase.
  Complex random_phase();

  /// Fork a new independent generator (stream split for sub-components).
  Rng fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace uwb
