// Seed-robust acceptance for accuracy tests.
//
// An accuracy test runs its scenario over K seeds and passes when the number
// of seeds meeting its per-seed predicate reaches the Wilson 95% lower bound
// of the success rate it documents. One hand-picked seed says little about a
// detector whose picks depend on the fading draw; a rate over many seeds is
// what the paper reports (Table I, Fig. 7), and it survives a change that
// moves roundoff or re-draws a stream.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace uwb::acceptance {

/// Lower end of the Wilson 95% score interval of a success rate `rate`
/// over `trials` trials.
inline double wilson_lower_bound(double rate, int trials) {
  constexpr double z = 1.96;  // normal quantile of 97.5%
  const double n = trials;
  const double z2 = z * z;
  const double centre = rate + z2 / (2.0 * n);
  const double spread =
      z * std::sqrt(rate * (1.0 - rate) / n + z2 / (4.0 * n * n));
  return (centre - spread) / (1.0 + z2 / n);
}

/// Fewest passes out of `trials` accepted for a documented rate: the Wilson
/// 95% lower bound of that rate at `trials` trials, rounded up.
inline int min_passes(double rate, int trials) {
  return static_cast<int>(std::ceil(trials * wilson_lower_bound(rate, trials)));
}

/// Runs `passes(seed)` for `seeds` consecutive seeds from `first_seed` and
/// expects at least min_passes(expected_rate, seeds) of them to pass.
/// Records the pass count as the test property "passes" and returns it.
template <class Predicate>
int expect_pass_rate(std::uint64_t first_seed, int seeds, double expected_rate,
                     Predicate passes) {
  int passed = 0;
  for (int i = 0; i < seeds; ++i)
    if (passes(first_seed + static_cast<std::uint64_t>(i))) ++passed;
  EXPECT_GE(passed, min_passes(expected_rate, seeds))
      << passed << " of " << seeds << " seeds from " << first_seed
      << " passed; documented rate " << expected_rate;
  ::testing::Test::RecordProperty("passes", passed);
  return passed;
}

}  // namespace uwb::acceptance
