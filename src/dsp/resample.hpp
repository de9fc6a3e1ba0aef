// Band-limited resampling.
//
// Sect. IV step 1 of the paper upsamples the CIR "using fast Fourier
// transform in order to obtain a smoother signal"; `upsample_fft` is that
// operation: zero-padding in the frequency domain, which interpolates the
// band-limited signal exactly.
#pragma once

#include "common/types.hpp"

namespace uwb::dsp {

/// FFT interpolation by an integer factor. Returns a signal of length
/// `x.size() * factor`; sample i of the output corresponds to time
/// i * (Ts / factor). factor >= 1.
CVec upsample_fft(const CVec& x, int factor);

/// Frequency-domain zero-stuffing: scatter the length-n spectrum `spec`
/// into the length n*factor buffer `padded` (Nyquist bin split for even n
/// and factor > 1, keeping real inputs real; at factor 1 `padded` is
/// `spec`). Building block of upsample_fft, exposed so
/// the detector can reuse the stuffed spectrum it already has instead of
/// re-transforming the upsampled signal.
void upsample_spectrum(const Complex* spec, std::size_t n, int factor,
                       Complex* padded);

/// The adjoint of upsample_spectrum: gather from the length n*factor
/// spectrum `spec` the n bins that upsample_spectrum fills, into `folded`
/// (the Nyquist pair of an even n averaged, as upsample_spectrum splits
/// it). For X of length n and Z = upsample_spectrum(X), with w = e^{2 pi i/n},
///   sum_{k < n*factor} Z[k] spec[k] w^kq = sum_{k < n} X[k] folded[k] w^kq:
/// a product with `spec`, evaluated on every factor-th sample of the
/// upsampled signal, needs only an n-point inverse transform. At factor 1
/// `folded` is `spec`.
void fold_spectrum(const Complex* spec, std::size_t n, int factor,
                   Complex* folded);

}  // namespace uwb::dsp
