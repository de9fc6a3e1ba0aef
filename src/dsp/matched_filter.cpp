#include "dsp/matched_filter.hpp"

#include <algorithm>

#include "common/expects.hpp"
#include "dsp/fft.hpp"
#include "dsp/signal.hpp"
#include "simd/simd.hpp"

namespace uwb::dsp {

MatchedFilter::MatchedFilter(CVec pulse_template)
    : tmpl_(normalize_energy(std::move(pulse_template))) {
  UWB_EXPECTS(!tmpl_.empty());
}

CVec correlate_direct(const CVec& r, const CVec& unit_template) {
  const std::size_t n = r.size();
  const std::size_t np = unit_template.size();
  CVec y(n, Complex{});
  const double* rd = reinterpret_cast<const double*>(r.data());
  const double* sd = reinterpret_cast<const double*>(unit_template.data());
  // y[i] = sum_m r[i + m] * conj(s[m]) via the vectorized kernel.
  simd::corr_direct(rd, sd, reinterpret_cast<double*>(y.data()), n, np);
  return y;
}

const CVec& MatchedFilter::template_spectrum(std::size_t padded) const {
  UWB_EXPECTS(is_pow2(padded));
  UWB_EXPECTS(padded >= tmpl_.size());
  if (spec_len_ != padded) {
    CVec t(padded, Complex{});
    // Correlation = convolution with conj-time-reversed template; placing
    // conj(s[m]) at index (padded - m) % padded makes the circular
    // convolution output index equal the template start position.
    for (std::size_t m = 0; m < tmpl_.size(); ++m)
      t[(padded - m) % padded] = std::conj(tmpl_[m]);
    plan_for(padded).transform_pow2(t.data(), false);
    tmpl_spec_ = std::move(t);
    spec_len_ = padded;
  }
  return tmpl_spec_;
}

CVec MatchedFilter::apply(const CVec& r) const {
  UWB_EXPECTS(!r.empty());
  const std::size_t n = r.size();
  const std::size_t np = tmpl_.size();
  // For tiny inputs the direct form is cheaper and exact.
  if (n * np <= 16384) return correlate_direct(r, tmpl_);

  // Zero-padded to at least n + np - 1, the circular convolution equals the
  // linear correlation.
  const std::size_t padded = next_pow2(n + np - 1);
  const FftPlan& plan = plan_for(padded);
  CVec& x = fft_scratch(2, padded);
  std::copy(r.begin(), r.end(), x.begin());
  std::fill(x.begin() + static_cast<std::ptrdiff_t>(n), x.end(), Complex{});
  plan.transform_pow2(x.data(), false);
  double* xd = reinterpret_cast<double*>(x.data());
  const CVec& tspec = template_spectrum(padded);
  simd::cmul(xd, reinterpret_cast<const double*>(tspec.data()), xd, padded);
  plan.transform_pow2(x.data(), true);
  CVec y(n);
  simd::copy_scaled(xd, 1.0 / static_cast<double>(padded),
                    reinterpret_cast<double*>(y.data()), n);
  return y;
}

}  // namespace uwb::dsp
