#include "dsp/resample.hpp"

#include <algorithm>

#include "common/expects.hpp"
#include "dsp/fft.hpp"
#include "simd/simd.hpp"

namespace uwb::dsp {

void upsample_spectrum(const Complex* spec, std::size_t n, int factor,
                       Complex* padded) {
  const std::size_t m = n * static_cast<std::size_t>(factor);
  std::fill(padded, padded + m, Complex{});
  // Copy positive frequencies [0, n/2) and negative frequencies (n/2, n).
  const std::size_t half = n / 2;
  for (std::size_t k = 0; k < half; ++k) padded[k] = spec[k];
  for (std::size_t k = half + (n % 2); k < n; ++k) padded[m - n + k] = spec[k];
  if (n % 2 == 0 && factor > 1) {
    // Split the Nyquist bin between the two halves to keep a real input
    // real. At factor 1 the two halves are the same bin, which keeps it.
    padded[half] = spec[half] * 0.5;
    padded[m - half] = spec[half] * 0.5;
  } else {
    padded[half] = spec[half];
  }
}

void fold_spectrum(const Complex* spec, std::size_t n, int factor,
                   Complex* folded) {
  const std::size_t m = n * static_cast<std::size_t>(factor);
  const std::size_t half = n / 2;
  for (std::size_t k = 0; k < half; ++k) folded[k] = spec[k];
  for (std::size_t k = half + (n % 2); k < n; ++k) folded[k] = spec[m - n + k];
  if (n % 2 == 0)
    folded[half] = 0.5 * (spec[half] + spec[m - half]);
  else
    folded[half] = spec[half];
}

CVec upsample_fft(const CVec& x, int factor) {
  UWB_EXPECTS(!x.empty());
  UWB_EXPECTS(factor >= 1);
  if (factor == 1) return x;
  const std::size_t n = x.size();
  const std::size_t m = n * static_cast<std::size_t>(factor);
  CVec spec(n);
  plan_for(n).transform(x.data(), spec.data(), false);
  const FftPlan& pm = plan_for(m);
  CVec y(m);
  const double scale =
      static_cast<double>(factor) / static_cast<double>(m);
  if (pm.radix2()) {
    upsample_spectrum(spec.data(), n, factor, y.data());
    pm.transform_pow2(y.data(), true);
  } else {
    CVec padded(m);
    upsample_spectrum(spec.data(), n, factor, padded.data());
    pm.transform(padded.data(), y.data(), true);
  }
  simd::scale(reinterpret_cast<double*>(y.data()), scale, m);
  return y;
}

}  // namespace uwb::dsp
