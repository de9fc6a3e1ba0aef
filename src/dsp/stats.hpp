// Basic descriptive statistics for evaluation harnesses.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace uwb::dsp {

double mean(const RVec& x);
/// Unbiased sample variance (n-1 denominator); 0 for n < 2.
double variance(const RVec& x);
double stddev(const RVec& x);
/// Median (copies and partially sorts).
double median(RVec x);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(RVec x, double p);
double rms(const RVec& x);

}  // namespace uwb::dsp
