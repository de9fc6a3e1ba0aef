#include "dsp/fft.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <utility>

#include "common/expects.hpp"
#include "simd/simd.hpp"

namespace uwb::dsp {

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  UWB_EXPECTS(n >= 1);
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

// The butterfly kernels work on the raw double pairs of the complex array
// (array-oriented access, guaranteed by the standard) with explicit
// real/imaginary arithmetic: std::complex operator* would route every
// product through the Annex-G NaN-recovery helper (__muldc3), which
// dominates the transform cost at any optimisation level.
inline double* as_doubles(Complex* x) { return reinterpret_cast<double*>(x); }

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n), pow2_(is_pow2(n)) {
  UWB_EXPECTS(n >= 1);
  if (pow2_) {
    rev_.resize(n);
    rev_[0] = 0;
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      rev_[i] = static_cast<std::uint32_t>(j);
    }
    // Contiguous forward twiddles per stage: stage `len` holds
    // e^{-2*pi*i*j/len} for j < len/2 at offset len/2 - 1 (n-1 total).
    if (n >= 2) {
      tw_.resize(n - 1);
      for (std::size_t len = 2; len <= n; len <<= 1) {
        Complex* w = tw_.data() + (len / 2 - 1);
        const double step = -2.0 * std::numbers::pi / static_cast<double>(len);
        for (std::size_t j = 0; j < len / 2; ++j) {
          const double ang = step * static_cast<double>(j);
          w[j] = Complex(std::cos(ang), std::sin(ang));
        }
      }
    }
    return;
  }
  // Bluestein: chirp w[k] = e^{+i*pi*k^2/n} (k^2 mod 2n avoids precision
  // loss for large k), kernel b[k] = b[m-k] = chirp[k] transformed once per
  // direction.
  chirp_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t k2 = (static_cast<std::uint64_t>(k) * k) % (2 * n);
    const double ang =
        std::numbers::pi * static_cast<double>(k2) / static_cast<double>(n);
    chirp_[k] = Complex(std::cos(ang), std::sin(ang));
  }
  m_ = next_pow2(2 * n - 1);
  sub_ = std::make_unique<const FftPlan>(m_);
  const auto make_kernel = [&](bool conj_chirp) {
    CVec b(m_, Complex{});
    b[0] = conj_chirp ? std::conj(chirp_[0]) : chirp_[0];
    for (std::size_t k = 1; k < n; ++k)
      b[k] = b[m_ - k] = conj_chirp ? std::conj(chirp_[k]) : chirp_[k];
    sub_->transform_pow2(b.data(), false);
    return b;
  };
  kernel_fwd_ = make_kernel(false);
  kernel_inv_ = make_kernel(true);
}

template <bool Inverse>
void FftPlan::run_pow2(Complex* x) const {
  const std::size_t n = n_;
  const std::uint32_t* rev = rev_.data();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  if (n < 2) return;
  double* d = as_doubles(x);
  // Stage len = 2: twiddle is 1 — pure add/sub butterflies.
  simd::butterfly_pairs(d, n);
  if (n < 4) return;
  // Stage len = 4: twiddles are 1 and -+i — still multiplication-free.
  for (std::size_t i = 0; i < 2 * n; i += 8) {
    const double u0r = d[i], u0i = d[i + 1], v0r = d[i + 4], v0i = d[i + 5];
    d[i] = u0r + v0r;
    d[i + 1] = u0i + v0i;
    d[i + 4] = u0r - v0r;
    d[i + 5] = u0i - v0i;
    const double u1r = d[i + 2], u1i = d[i + 3];
    const double x1r = d[i + 6], x1i = d[i + 7];
    // Forward: w = -i so v = (x1i, -x1r); inverse: w = +i so v = (-x1i, x1r).
    const double v1r = Inverse ? -x1i : x1i;
    const double v1i = Inverse ? x1r : -x1r;
    d[i + 2] = u1r + v1r;
    d[i + 3] = u1i + v1i;
    d[i + 6] = u1r - v1r;
    d[i + 7] = u1i - v1i;
  }
  // General stages from the twiddle tables (vectorized whole-stage kernel).
  for (std::size_t len = 8; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const double* w = reinterpret_cast<const double*>(tw_.data() + (half - 1));
    simd::fft_stage(d, w, n, len, Inverse);
  }
}

void FftPlan::transform_pow2(Complex* x, bool inverse) const {
  UWB_EXPECTS(pow2_);
  if (inverse)
    run_pow2<true>(x);
  else
    run_pow2<false>(x);
}

template <bool Inverse>
void FftPlan::run_bluestein(const Complex* x, Complex* y) const {
  const std::size_t n = n_, m = m_;
  CVec buf(m);  // zero-padded past n
  Complex* a = buf.data();
  const double* w = reinterpret_cast<const double*>(chirp_.data());
  double* ad = as_doubles(a);
  // a[k] = x[k] * conj(chirp[k]) forward, x[k] * chirp[k] inverse.
  const double* xd = reinterpret_cast<const double*>(x);
  if (Inverse)
    simd::cmul(xd, w, ad, n);
  else
    simd::cmul_conj(xd, w, ad, n);
  sub_->transform_pow2(a, false);
  const CVec& kernel = Inverse ? kernel_inv_ : kernel_fwd_;
  const double* kd = reinterpret_cast<const double*>(kernel.data());
  simd::cmul(ad, kd, ad, m);
  sub_->transform_pow2(a, true);
  const double scale = 1.0 / static_cast<double>(m);
  double* yd = as_doubles(y);
  // y[k] = a[k] / m * conj(chirp[k]) forward, * chirp[k] inverse (the same
  // multiplier as on the way in).
  if (Inverse)
    simd::cmul_scaled(ad, w, scale, yd, n);
  else
    simd::cmul_conj_scaled(ad, w, scale, yd, n);
}

void FftPlan::transform(const Complex* x, Complex* y, bool inverse) const {
  if (pow2_) {
    if (y != x) std::copy(x, x + n_, y);
    transform_pow2(y, inverse);
    return;
  }
  UWB_EXPECTS(x != y);
  if (inverse)
    run_bluestein<true>(x, y);
  else
    run_bluestein<false>(x, y);
}

const FftPlan& plan_for(std::size_t n) {
  UWB_EXPECTS(n >= 1);
  // Insert-only: a plan, once built, keeps its address until the process
  // exits. Building under the lock builds each length exactly once.
  static std::mutex mu;
  static std::map<std::size_t, std::unique_ptr<const FftPlan>> plans;
  const std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<const FftPlan>& plan = plans[n];
  if (!plan) plan = std::make_unique<const FftPlan>(n);
  return *plan;
}

CVec fft(const CVec& x) {
  UWB_EXPECTS(!x.empty());
  CVec y(x.size());
  plan_for(x.size()).transform(x.data(), y.data(), false);
  return y;
}

CVec ifft(const CVec& x) {
  UWB_EXPECTS(!x.empty());
  CVec y(x.size());
  plan_for(x.size()).transform(x.data(), y.data(), true);
  const double scale = 1.0 / static_cast<double>(x.size());
  simd::scale(reinterpret_cast<double*>(y.data()), scale, y.size());
  return y;
}

void fft_pow2_inplace(CVec& x, bool inverse) {
  UWB_EXPECTS(is_pow2(x.size()));
  plan_for(x.size()).transform_pow2(x.data(), inverse);
}

}  // namespace uwb::dsp
