// Discrete Fourier transforms.
//
// `fft`/`ifft` accept any length: power-of-two inputs use an iterative
// radix-2 Cooley-Tukey transform, everything else falls back to Bluestein's
// chirp-z algorithm (needed because the DW1000 CIR is 1016 taps long).
//
// Transforms execute against an `FftPlan`: precomputed bit-reversal tables,
// per-stage twiddle factors, and (for Bluestein lengths) the chirp and its
// kernel spectra. A plan is immutable once built, so one plan serves every
// thread: `plan_for` builds each length once per process, and repeated
// transforms of the hot lengths (1024/8192 in the detection pipeline)
// never recompute trigonometry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/types.hpp"

namespace uwb::dsp {

/// True if n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// Precomputed transform state for one length.
///
/// Power-of-two lengths hold a bit-reversal permutation plus contiguous
/// per-stage twiddle tables; other lengths hold the Bluestein chirp, the
/// forward/inverse kernel spectra and a nested plan for the padded
/// power-of-two convolution length. Immutable after construction, so
/// concurrent transforms on one plan are safe.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }
  bool radix2() const { return pow2_; }

  /// In-place unscaled DFT of x[0..size()); requires radix2(). `inverse`
  /// selects the conjugate transform (no 1/N factor).
  void transform_pow2(Complex* x, bool inverse) const;

  /// Out-of-place unscaled DFT of any length: y[0..size()) = DFT(x).
  /// x and y may alias only for radix2() plans.
  void transform(const Complex* x, Complex* y, bool inverse) const;

 private:
  template <bool Inverse>
  void run_pow2(Complex* x) const;
  template <bool Inverse>
  void run_bluestein(const Complex* x, Complex* y) const;

  std::size_t n_ = 0;
  bool pow2_ = false;
  // Radix-2 state: bit-reversal permutation and per-stage forward twiddles
  // (stage with butterfly span `len` starts at offset len/2 - 1; n-1 total).
  std::vector<std::uint32_t> rev_;
  CVec tw_;
  // Bluestein state: chirp w[k] = e^{+i*pi*k^2/n}, kernel spectra for both
  // directions at the padded length m_, and the nested pow-2 plan.
  std::size_t m_ = 0;
  CVec chirp_;
  CVec kernel_fwd_;
  CVec kernel_inv_;
  std::unique_ptr<const FftPlan> sub_;
};

/// The process-wide plan for length n: built by the first call for n (under
/// a mutex, so once per process), then shared by every thread. The
/// reference stays valid for the process lifetime.
const FftPlan& plan_for(std::size_t n);

/// No-op, kept only because perfbench calls it (the next benchmark
/// revision drops the call, ROADMAP item 7); no plan cache is per thread.
inline void clear_fft_plan_cache() {}

/// Forward DFT of arbitrary length. Returns X[k] = sum_n x[n] e^{-2pi i kn/N}.
CVec fft(const CVec& x);

/// Inverse DFT of arbitrary length (includes the 1/N factor).
CVec ifft(const CVec& x);

/// In-place radix-2 FFT; `x.size()` must be a power of two.
/// `inverse` selects the conjugate transform (without the 1/N factor).
void fft_pow2_inplace(CVec& x, bool inverse);

}  // namespace uwb::dsp
