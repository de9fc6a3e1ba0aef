#include "dsp/signal.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"

namespace uwb::dsp {

RVec magnitude(const CVec& x) {
  RVec m(x.size());
  std::transform(x.begin(), x.end(), m.begin(),
                 [](Complex v) { return std::abs(v); });
  return m;
}

double energy(const CVec& x) {
  double e = 0.0;
  for (const auto& v : x) e += std::norm(v);
  return e;
}

CVec normalize_energy(const CVec& x) {
  const double e = energy(x);
  if (e == 0.0) return x;
  const double s = 1.0 / std::sqrt(e);
  CVec y(x.size());
  std::transform(x.begin(), x.end(), y.begin(),
                 [s](Complex v) { return v * s; });
  return y;
}

Complex sample_at(const CVec& x, double t) {
  UWB_EXPECTS(!x.empty());
  if (t <= 0.0) return x.front();
  const auto n = static_cast<double>(x.size() - 1);
  if (t >= n) return x.back();
  const auto i0 = static_cast<std::size_t>(t);
  const double frac = t - static_cast<double>(i0);
  return x[i0] * (1.0 - frac) + x[i0 + 1] * frac;
}

}  // namespace uwb::dsp
