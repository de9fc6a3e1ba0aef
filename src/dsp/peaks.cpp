#include "dsp/peaks.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/expects.hpp"
#include "dsp/signal.hpp"

namespace uwb::dsp {

std::size_t argmax_abs(const CVec& x) {
  UWB_EXPECTS(!x.empty());
  // Comparing |x|^2 avoids a hypot per sample; the argmax is the same.
  std::size_t best = 0;
  double best_mag = std::norm(x[0]);
  for (std::size_t i = 1; i < x.size(); ++i) {
    const double m = std::norm(x[i]);
    if (m > best_mag) {
      best_mag = m;
      best = i;
    }
  }
  return best;
}

std::vector<Peak> local_maxima(const CVec& x, double threshold,
                               std::size_t min_distance) {
  UWB_EXPECTS(!x.empty());
  const RVec mag = magnitude(x);
  std::vector<Peak> candidates;
  for (std::size_t i = 0; i < mag.size(); ++i) {
    const bool left_ok = (i == 0) || mag[i] >= mag[i - 1];
    const bool right_ok = (i + 1 == mag.size()) || mag[i] > mag[i + 1];
    if (left_ok && right_ok && mag[i] >= threshold)
      candidates.push_back({i, mag[i]});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Peak& a, const Peak& b) {
              return a.magnitude > b.magnitude;
            });
  std::vector<Peak> accepted;
  for (const Peak& c : candidates) {
    const bool clash = std::any_of(
        accepted.begin(), accepted.end(), [&](const Peak& a) {
          const std::size_t d =
              c.index > a.index ? c.index - a.index : a.index - c.index;
          return d < min_distance;
        });
    if (!clash) accepted.push_back(c);
  }
  std::sort(accepted.begin(), accepted.end(),
            [](const Peak& a, const Peak& b) { return a.index < b.index; });
  return accepted;
}

double noise_sigma_estimate(const CVec& x, RVec& sq) {
  UWB_EXPECTS(!x.empty());
  UWB_EXPECTS(x.size() <= std::numeric_limits<std::uint32_t>::max());
  // Select the median of |x|^2 (same element as the median of |x|, one
  // sqrt instead of a hypot per sample) in the caller's buffer: the
  // detector calls this once per search-and-subtract iteration.
  sq.resize(x.size());

  // Radix select: non-negative doubles (+0, subnormals, +inf included)
  // order like their IEEE-754 bit patterns, so the median is found digit by
  // digit from the top: histogram one 11-bit digit (the exponent field
  // first; the sign bit is clear), keep the bucket that holds the wanted
  // rank at the front of the buffer, and repeat on the next digit. The last
  // digit overlaps the one before it, which its survivors already share.
  // nth_element finishes once few values are left, so the result is the
  // element nth_element alone would select. NaN is unspecified, as there.
  constexpr int kDigitBits = 11;
  constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << kDigitBits) - 1;
  constexpr std::size_t kFinishBelow = 32;
  const auto digit = [](double v, int shift) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    return static_cast<std::size_t>((bits >> shift) & kDigitMask);
  };
  std::array<std::uint32_t, std::size_t{1} << kDigitBits> hist{};
  int shift = 64 - 1 - kDigitBits;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sq[i] = std::norm(x[i]);
    ++hist[digit(sq[i], shift)];
  }
  std::size_t size = sq.size();
  std::size_t rank = size / 2;
  while (size > kFinishBelow) {
    std::size_t bucket = 0;
    while (rank >= hist[bucket]) rank -= hist[bucket++];
    // Branch-free: the kept bucket often holds a third of the values, so a
    // branch on it would mispredict.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size; ++i) {
      const double v = sq[i];
      sq[kept] = v;
      kept += digit(v, shift) == bucket ? 1 : 0;
    }
    size = kept;
    if (shift == 0) break;  // every bit compared: the survivors are equal
    shift = std::max(shift - kDigitBits, 0);
    hist.fill(0);
    for (std::size_t i = 0; i < size; ++i) ++hist[digit(sq[i], shift)];
  }
  const auto mid = sq.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(sq.begin(), mid,
                   sq.begin() + static_cast<std::ptrdiff_t>(size));
  // Rayleigh median = sigma * sqrt(2 ln 2).
  return std::sqrt(*mid) / std::sqrt(2.0 * std::log(2.0));
}

}  // namespace uwb::dsp
