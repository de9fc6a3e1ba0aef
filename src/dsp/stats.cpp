#include "dsp/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/expects.hpp"

namespace uwb::dsp {

double mean(const RVec& x) {
  UWB_EXPECTS(!x.empty());
  return std::accumulate(x.begin(), x.end(), 0.0) /
         static_cast<double>(x.size());
}

double variance(const RVec& x) {
  UWB_EXPECTS(!x.empty());
  if (x.size() < 2) return 0.0;
  const double m = mean(x);
  double acc = 0.0;
  for (double v : x) acc += (v - m) * (v - m);
  return acc / static_cast<double>(x.size() - 1);
}

double stddev(const RVec& x) { return std::sqrt(variance(x)); }

double median(RVec x) { return percentile(std::move(x), 50.0); }

double percentile(RVec x, double p) {
  UWB_EXPECTS(!x.empty());
  UWB_EXPECTS(p >= 0.0 && p <= 100.0);
  std::sort(x.begin(), x.end());
  const double rank = p / 100.0 * static_cast<double>(x.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, x.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return x[lo] * (1.0 - frac) + x[hi] * frac;
}

double rms(const RVec& x) {
  UWB_EXPECTS(!x.empty());
  double acc = 0.0;
  for (double v : x) acc += v * v;
  return std::sqrt(acc / static_cast<double>(x.size()));
}

}  // namespace uwb::dsp
