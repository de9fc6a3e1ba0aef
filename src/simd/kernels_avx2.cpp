// AVX2 kernel table: two complexes (four doubles) per vector operation.
//
// This is the only translation unit compiled with -mavx2 (see
// src/simd/CMakeLists.txt); when the compiler cannot target AVX2 the file
// degrades to a nullptr table and dispatch stays on the scalar reference.
// No FMA is used anywhere — contraction would change rounding and break the
// bit-identity contract of the elementwise kernels (simd.hpp).
//
// Elementwise kernels form the same products and combine them in the same
// association as the scalar reference, per element, so their outputs are
// bit-identical across levels (including the odd-element tails, which run
// one 128-bit element with the identical operation sequence). The
// reduction kernels accumulate two interleaved partial sums and combine
// them once at the end, so they agree with scalar to roundoff only;
// corr_real_lags keeps avx2_cdot_conj's order per lag. The
// real-valued math kernels (exp, log, sincos, philox4x32_10) run the
// operation sequence of their scalar function in simd/math.hpp on four
// lanes; a partial last vector is loaded and stored under a lane mask.
#include "simd/kernel_table.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>

// Only the constants of math.hpp: calling one of its inline functions here
// would compile it with -mavx2, and the linker may keep that copy for the
// scalar callers.
#include "simd/math.hpp"

namespace uwb::simd::detail {
namespace {

inline __m256d dup_re(__m256d b) { return _mm256_movedup_pd(b); }
inline __m256d dup_im(__m256d b) { return _mm256_permute_pd(b, 0xF); }
inline __m256d swap_ri(__m256d a) { return _mm256_permute_pd(a, 0x5); }

// Two complex products a*b: t1 = a * re(b) dup, t2 = swap(a) * im(b) dup,
// result even lanes t1 - t2 (real), odd lanes t1 + t2 (imag) — exactly
// _mm256_addsub_pd. Per element this is the scalar operation sequence.
inline __m256d cprod2(__m256d a, __m256d b) {
  const __m256d t1 = _mm256_mul_pd(a, dup_re(b));
  const __m256d t2 = _mm256_mul_pd(swap_ri(a), dup_im(b));
  return _mm256_addsub_pd(t1, t2);
}

// Two products a*conj(b): even lanes t1 + t2, odd lanes t1 - t2 — addsub
// applied to the negated second operand.
inline __m256d cprod2_conj(__m256d a, __m256d b) {
  const __m256d t1 = _mm256_mul_pd(a, dup_re(b));
  const __m256d t2 = _mm256_mul_pd(swap_ri(a), dup_im(b));
  return _mm256_addsub_pd(t1, _mm256_xor_pd(t2, _mm256_set1_pd(-0.0)));
}

// 128-bit single-complex variants for tails (identical op sequence).
inline __m128d cprod1(__m128d a, __m128d b) {
  const __m128d t1 = _mm_mul_pd(a, _mm_unpacklo_pd(b, b));
  const __m128d t2 = _mm_mul_pd(_mm_shuffle_pd(a, a, 1), _mm_unpackhi_pd(b, b));
  return _mm_add_pd(t1, _mm_xor_pd(t2, _mm_set_pd(0.0, -0.0)));
}

inline __m128d cprod1_conj(__m128d a, __m128d b) {
  const __m128d t1 = _mm_mul_pd(a, _mm_unpacklo_pd(b, b));
  const __m128d t2 = _mm_mul_pd(_mm_shuffle_pd(a, a, 1), _mm_unpackhi_pd(b, b));
  return _mm_add_pd(t1, _mm_xor_pd(t2, _mm_set_pd(-0.0, 0.0)));
}

template <bool Conj, bool Scaled>
void cmul_impl(const double* a, const double* b, double s, double* out,
               std::size_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    __m256d av = _mm256_loadu_pd(a + 2 * k);
    if constexpr (Scaled) av = _mm256_mul_pd(av, sv);
    const __m256d bv = _mm256_loadu_pd(b + 2 * k);
    _mm256_storeu_pd(out + 2 * k,
                     Conj ? cprod2_conj(av, bv) : cprod2(av, bv));
  }
  if (k < n) {
    __m128d av = _mm_loadu_pd(a + 2 * k);
    if constexpr (Scaled) av = _mm_mul_pd(av, _mm_set1_pd(s));
    const __m128d bv = _mm_loadu_pd(b + 2 * k);
    _mm_storeu_pd(out + 2 * k, Conj ? cprod1_conj(av, bv) : cprod1(av, bv));
  }
}

void avx2_cmul(const double* a, const double* b, double* out, std::size_t n) {
  cmul_impl<false, false>(a, b, 1.0, out, n);
}

void avx2_cmul_conj(const double* a, const double* b, double* out,
                    std::size_t n) {
  cmul_impl<true, false>(a, b, 1.0, out, n);
}

void avx2_cmul_scaled(const double* a, const double* b, double s, double* out,
                      std::size_t n) {
  cmul_impl<false, true>(a, b, s, out, n);
}

void avx2_cmul_conj_scaled(const double* a, const double* b, double s,
                           double* out, std::size_t n) {
  cmul_impl<true, true>(a, b, s, out, n);
}

void avx2_scale(double* x, double s, std::size_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  std::size_t k = 0;
  for (; k + 4 <= 2 * n; k += 4)
    _mm256_storeu_pd(x + k, _mm256_mul_pd(_mm256_loadu_pd(x + k), sv));
  for (; k < 2 * n; k += 2)
    _mm_storeu_pd(x + k, _mm_mul_pd(_mm_loadu_pd(x + k), _mm_set1_pd(s)));
}

void avx2_copy_scaled(const double* x, double s, double* out, std::size_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  std::size_t k = 0;
  for (; k + 4 <= 2 * n; k += 4)
    _mm256_storeu_pd(out + k, _mm256_mul_pd(_mm256_loadu_pd(x + k), sv));
  for (; k < 2 * n; k += 2)
    _mm_storeu_pd(out + k, _mm_mul_pd(_mm_loadu_pd(x + k), _mm_set1_pd(s)));
}

void avx2_butterfly_pairs(double* d, std::size_t n) {
  // One butterfly (u, v interleaved as 4 doubles) per 256-bit vector:
  // low lane u+v, high lane u-v.
  for (std::size_t i = 0; i < 2 * n; i += 4) {
    const __m256d a = _mm256_loadu_pd(d + i);
    const __m256d b = _mm256_permute2f128_pd(a, a, 0x01);  // [v, u]
    const __m256d sum = _mm256_add_pd(a, b);               // [u+v, v+u]
    const __m256d dif = _mm256_sub_pd(b, a);               // [v-u, u-v]
    _mm256_storeu_pd(d + i, _mm256_blend_pd(sum, dif, 0xC));
  }
}

void avx2_fft_stage(double* d, const double* w, std::size_t n,
                    std::size_t len, bool inverse) {
  const std::size_t half = len >> 1;  // >= 4, so the 2-wide loop has no tail
  const __m256d wi_sign =
      inverse ? _mm256_set1_pd(-0.0) : _mm256_setzero_pd();
  for (std::size_t i = 0; i < n; i += len) {
    double* a = d + 2 * i;
    double* b = d + 2 * (i + half);
    for (std::size_t j = 0; j < half; j += 2) {
      const __m256d wv = _mm256_loadu_pd(w + 2 * j);
      const __m256d x = _mm256_loadu_pd(b + 2 * j);
      const __m256d t1 = _mm256_mul_pd(x, dup_re(wv));
      const __m256d wiv = _mm256_xor_pd(dup_im(wv), wi_sign);
      const __m256d t2 = _mm256_mul_pd(swap_ri(x), wiv);
      const __m256d v = _mm256_addsub_pd(t1, t2);
      const __m256d u = _mm256_loadu_pd(a + 2 * j);
      _mm256_storeu_pd(a + 2 * j, _mm256_add_pd(u, v));
      _mm256_storeu_pd(b + 2 * j, _mm256_sub_pd(u, v));
    }
  }
}

double avx2_norms_max(const double* y, std::size_t n, double* p) {
  // Four |y|^2 per iteration. hadd forms im^2 + re^2, which equals the
  // scalar re^2 + im^2 (addition commutes exactly), but interleaves the two
  // source vectors per 128-bit lane: complexes k + {0, 2, 1, 3}, which the
  // permute puts back in order. The maximum is exact in any order.
  std::size_t k = 0;
  __m256d best = _mm256_setzero_pd();
  for (; k + 4 <= n; k += 4) {
    const __m256d v0 = _mm256_loadu_pd(y + 2 * k);
    const __m256d v1 = _mm256_loadu_pd(y + 2 * k + 4);
    const __m256d nrm = _mm256_hadd_pd(_mm256_mul_pd(v0, v0),
                                       _mm256_mul_pd(v1, v1));
    _mm256_storeu_pd(p + k, _mm256_permute4x64_pd(nrm, 0xD8));
    best = _mm256_max_pd(best, nrm);
  }
  const __m128d half = _mm_max_pd(_mm256_castpd256_pd128(best),
                                  _mm256_extractf128_pd(best, 1));
  double max_norm =
      _mm_cvtsd_f64(_mm_max_pd(half, _mm_unpackhi_pd(half, half)));
  for (; k < n; ++k) {
    p[k] = y[2 * k] * y[2 * k] + y[2 * k + 1] * y[2 * k + 1];
    if (p[k] > max_norm) max_norm = p[k];
  }
  return max_norm;
}

std::size_t avx2_indices_at_least(const double* p, std::size_t n,
                                  double cut, std::size_t* idx) {
  // Eight comparisons per iteration into one bit mask (NLT_UQ is exactly
  // !(p < cut)); the set bits, lowest first, are the passing indices.
  const __m256d c = _mm256_set1_pd(cut);
  std::size_t count = 0;
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    unsigned mask = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(p + k), c, _CMP_NLT_UQ)));
    mask |= static_cast<unsigned>(_mm256_movemask_pd(_mm256_cmp_pd(
                _mm256_loadu_pd(p + k + 4), c, _CMP_NLT_UQ)))
            << 4;
    for (; mask != 0; mask &= mask - 1)
      idx[count++] = k + static_cast<std::size_t>(__builtin_ctz(mask));
  }
  for (; k < n; ++k) {
    idx[count] = k;
    count += static_cast<std::size_t>(!(p[k] < cut));
  }
  return count;
}

void avx2_cdot_conj(const double* a, const double* b, std::size_t n,
                    double* re, double* im) {
  // Two interleaved partial sums, combined once at the end: agrees with
  // the scalar accumulation to roundoff (documented in simd.hpp).
  __m256d acc = _mm256_setzero_pd();
  std::size_t m = 0;
  for (; m + 2 <= n; m += 2) {
    const __m256d av = _mm256_loadu_pd(a + 2 * m);
    const __m256d bv = _mm256_loadu_pd(b + 2 * m);
    acc = _mm256_add_pd(acc, cprod2_conj(av, bv));
  }
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  __m128d sum = _mm_add_pd(lo, hi);
  if (m < n) {
    const __m128d av = _mm_loadu_pd(a + 2 * m);
    const __m128d bv = _mm_loadu_pd(b + 2 * m);
    sum = _mm_add_pd(sum, cprod1_conj(av, bv));
  }
  *re = _mm_cvtsd_f64(sum);
  *im = _mm_cvtsd_f64(_mm_unpackhi_pd(sum, sum));
}

// One lag's end of avx2_cdot_conj: lo + hi of the accumulator, then the
// odd last sample when there is one.
inline void finish_lag(__m256d acc, const double* r_last,
                       const double* s_last, bool odd, double* y) {
  __m128d sum = _mm_add_pd(_mm256_castpd256_pd128(acc),
                           _mm256_extractf128_pd(acc, 1));
  if (odd)
    sum = _mm_add_pd(sum, _mm_mul_pd(_mm_loadu_pd(r_last),
                                     _mm_loaddup_pd(s_last)));
  _mm_storeu_pd(y, sum);
}

void avx2_corr_real_lags(const double* r, const double* s, std::size_t n,
                         std::size_t lags, double* y) {
  // Each lag accumulates in avx2_cdot_conj's lane layout: even and odd
  // samples in the two halves of one vector. Four lags per pass over s
  // keep four independent addition chains in flight where cdot_conj's one
  // chain waits on each addition. (Named accumulators, not an array: at
  // -O2 an array is not promoted to registers.)
  std::size_t k = 0;
  for (; k + 4 <= lags; k += 4) {
    const double* rk = r + 2 * k;
    __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
    std::size_t m = 0;
    for (; m + 2 <= n; m += 2) {
      const __m256d br = dup_re(_mm256_loadu_pd(s + 2 * m));
      const double* rm = rk + 2 * m;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(rm), br));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(rm + 2), br));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(rm + 4), br));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(rm + 6), br));
    }
    const bool odd = m < n;
    finish_lag(a0, rk + 2 * m, s + 2 * m, odd, y + 2 * k);
    finish_lag(a1, rk + 2 * m + 2, s + 2 * m, odd, y + 2 * k + 2);
    finish_lag(a2, rk + 2 * m + 4, s + 2 * m, odd, y + 2 * k + 4);
    finish_lag(a3, rk + 2 * m + 6, s + 2 * m, odd, y + 2 * k + 6);
  }
  for (; k < lags; ++k) {
    const double* rk = r + 2 * k;
    __m256d acc = _mm256_setzero_pd();
    std::size_t m = 0;
    for (; m + 2 <= n; m += 2) {
      const __m256d br = dup_re(_mm256_loadu_pd(s + 2 * m));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(rk + 2 * m), br));
    }
    finish_lag(acc, rk + 2 * m, s + 2 * m, m < n, y + 2 * k);
  }
}

void avx2_corr_direct(const double* r, const double* s, double* y,
                      std::size_t n, std::size_t np) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t mmax = np < n - i ? np : n - i;
    avx2_cdot_conj(r + 2 * i, s, mmax, &y[2 * i], &y[2 * i + 1]);
  }
}

void avx2_corr_window_update(double* y, const double* d, const double* s,
                            std::ptrdiff_t k_lo, std::ptrdiff_t k_hi,
                            std::ptrdiff_t stride, std::ptrdiff_t w_lo,
                            std::ptrdiff_t w_hi, std::ptrdiff_t np) {
  for (std::ptrdiff_t k = k_lo; k < k_hi; ++k) {
    const std::ptrdiff_t j = k * stride;
    const std::ptrdiff_t p_lo = w_lo > j ? w_lo : j;
    const std::ptrdiff_t p_hi = w_hi < j + np ? w_hi : j + np;
    if (p_lo >= p_hi) continue;
    double acc_r = 0.0, acc_i = 0.0;
    avx2_cdot_conj(d + 2 * (p_lo - w_lo), s + 2 * (p_lo - j),
                   static_cast<std::size_t>(p_hi - p_lo), &acc_r, &acc_i);
    y[2 * k] -= acc_r;
    y[2 * k + 1] -= acc_i;
  }
}

// ---------------------------------------------------------------------------
// Real-valued math kernels: each line repeats one step of the scalar
// function in simd/math.hpp, in the same association.

inline __m256d splat(double v) { return _mm256_set1_pd(v); }
inline __m256i splat64(std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

// Lane mask of the first `count` (< 4) lanes, for maskload / maskstore.
inline __m256i first_lanes(std::size_t count) {
  const __m256i lane = _mm256_set_epi64x(3, 2, 1, 0);
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(count)),
                            lane);
}

inline __m256d exp4(__m256d x) {
  using namespace math_detail;
  const __m256d kr =
      _mm256_add_pd(_mm256_mul_pd(x, splat(kInvLn2)), splat(kRoundToInt));
  const __m256d k = _mm256_sub_pd(kr, splat(kRoundToInt));
  const __m256d hi = _mm256_sub_pd(x, _mm256_mul_pd(k, splat(kLn2Hi)));
  const __m256d lo = _mm256_mul_pd(k, splat(kLn2Lo));
  const __m256d r = _mm256_sub_pd(hi, lo);
  const __m256d t = _mm256_mul_pd(r, r);
  __m256d p = _mm256_add_pd(splat(kExpP4), _mm256_mul_pd(t, splat(kExpP5)));
  p = _mm256_add_pd(splat(kExpP3), _mm256_mul_pd(t, p));
  p = _mm256_add_pd(splat(kExpP2), _mm256_mul_pd(t, p));
  p = _mm256_add_pd(splat(kExpP1), _mm256_mul_pd(t, p));
  const __m256d c = _mm256_sub_pd(r, _mm256_mul_pd(t, p));
  const __m256d q = _mm256_div_pd(_mm256_mul_pd(r, c),
                                  _mm256_sub_pd(splat(2.0), c));
  const __m256d y = _mm256_sub_pd(
      splat(1.0), _mm256_sub_pd(_mm256_sub_pd(lo, q), hi));
  const __m256i scale = _mm256_slli_epi64(
      _mm256_add_epi64(_mm256_castpd_si256(kr), splat64(1023)), 52);
  return _mm256_mul_pd(y, _mm256_castsi256_pd(scale));
}

inline __m256d log4(__m256d x) {
  using namespace math_detail;
  const __m256i shifted =
      _mm256_add_epi64(_mm256_castpd_si256(x), splat64(kLogShift));
  // k = e − 1023 exactly, as (2⁵² + e) − (2⁵² + 1023): the same value the
  // scalar form converts from an int.
  const __m256i e = _mm256_srli_epi64(shifted, 52);
  const __m256d k = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(e, splat64(0x4330000000000000ULL))),
      splat(0x1p52 + 1023.0));
  const __m256d f = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_add_epi64(
          _mm256_and_si256(shifted, splat64(kMantissaMask)),
          splat64(kLogSqrtHalf))),
      splat(1.0));
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(splat(0.5), f), f);
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(splat(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  __m256d t1 = _mm256_add_pd(splat(kLogLg4), _mm256_mul_pd(w, splat(kLogLg6)));
  t1 = _mm256_mul_pd(w, _mm256_add_pd(splat(kLogLg2), _mm256_mul_pd(w, t1)));
  __m256d t2 = _mm256_add_pd(splat(kLogLg5), _mm256_mul_pd(w, splat(kLogLg7)));
  t2 = _mm256_add_pd(splat(kLogLg3), _mm256_mul_pd(w, t2));
  t2 = _mm256_mul_pd(z, _mm256_add_pd(splat(kLogLg1), _mm256_mul_pd(w, t2)));
  const __m256d r = _mm256_add_pd(t2, t1);
  __m256d y = _mm256_mul_pd(s, _mm256_add_pd(hfsq, r));
  y = _mm256_add_pd(y, _mm256_mul_pd(k, splat(kLn2Lo)));
  y = _mm256_sub_pd(y, hfsq);
  y = _mm256_add_pd(y, f);
  return _mm256_add_pd(y, _mm256_mul_pd(k, splat(kLn2Hi)));
}

inline void sincos4(__m256d x, __m256d* sin_x, __m256d* cos_x) {
  using namespace math_detail;
  // reduce_pio2
  const __m256d nr =
      _mm256_add_pd(_mm256_mul_pd(x, splat(kInvPio2)), splat(kRoundToInt));
  const __m256d n = _mm256_sub_pd(nr, splat(kRoundToInt));
  const __m256d t = _mm256_sub_pd(x, _mm256_mul_pd(n, splat(kPio2_1)));
  __m256d w = _mm256_mul_pd(n, splat(kPio2_2));
  const __m256d r = _mm256_sub_pd(t, w);
  w = _mm256_sub_pd(_mm256_mul_pd(n, splat(kPio2_2t)),
                    _mm256_sub_pd(_mm256_sub_pd(t, r), w));
  const __m256d y0 = _mm256_sub_pd(r, w);
  const __m256d y1 = _mm256_sub_pd(_mm256_sub_pd(r, y0), w);
  const __m256d z = _mm256_mul_pd(y0, y0);
  const __m256d zz = _mm256_mul_pd(z, z);
  // sin_kernel
  __m256d rs = _mm256_add_pd(splat(kSinS3), _mm256_mul_pd(z, splat(kSinS4)));
  rs = _mm256_add_pd(splat(kSinS2), _mm256_mul_pd(z, rs));
  const __m256d rs2 =
      _mm256_add_pd(splat(kSinS5), _mm256_mul_pd(z, splat(kSinS6)));
  rs = _mm256_add_pd(rs, _mm256_mul_pd(_mm256_mul_pd(z, zz), rs2));
  const __m256d v = _mm256_mul_pd(z, y0);
  const __m256d s = _mm256_sub_pd(
      y0,
      _mm256_sub_pd(
          _mm256_sub_pd(
              _mm256_mul_pd(z, _mm256_sub_pd(_mm256_mul_pd(splat(0.5), y1),
                                             _mm256_mul_pd(v, rs))),
              y1),
          _mm256_mul_pd(v, splat(kSinS1))));
  // cos_kernel
  __m256d rc = _mm256_add_pd(splat(kCosC2), _mm256_mul_pd(z, splat(kCosC3)));
  rc = _mm256_mul_pd(z, _mm256_add_pd(splat(kCosC1), _mm256_mul_pd(z, rc)));
  __m256d rc2 = _mm256_add_pd(splat(kCosC5), _mm256_mul_pd(z, splat(kCosC6)));
  rc2 = _mm256_add_pd(splat(kCosC4), _mm256_mul_pd(z, rc2));
  rc = _mm256_add_pd(rc, _mm256_mul_pd(_mm256_mul_pd(zz, zz), rc2));
  const __m256d hz = _mm256_mul_pd(splat(0.5), z);
  const __m256d one_hz = _mm256_sub_pd(splat(1.0), hz);
  const __m256d c = _mm256_add_pd(
      one_hz,
      _mm256_add_pd(
          _mm256_sub_pd(_mm256_sub_pd(splat(1.0), one_hz), hz),
          _mm256_sub_pd(_mm256_mul_pd(z, rc), _mm256_mul_pd(y0, y1))));
  // Quadrant q = n mod 4: swap when q is odd, negate sin when q ∈ {2, 3}
  // and cos when q ∈ {1, 2}.
  const __m256i q = _mm256_and_si256(_mm256_castpd_si256(nr), splat64(3));
  const __m256d swap = _mm256_castsi256_pd(_mm256_slli_epi64(q, 63));
  const __m256d sin_sign = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_and_si256(q, splat64(2)), 62));
  const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(q, splat64(1)), splat64(2)), 62));
  *sin_x = _mm256_xor_pd(_mm256_blendv_pd(s, c, swap), sin_sign);
  *cos_x = _mm256_xor_pd(_mm256_blendv_pd(c, s, swap), cos_sign);
}

// Two vectors per step where there are eight elements: the two dependency
// chains overlap.
template <class F>
void map4(const double* x, double* y, std::size_t n, F f) {
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256d a = f(_mm256_loadu_pd(x + k));
    const __m256d b = f(_mm256_loadu_pd(x + k + 4));
    _mm256_storeu_pd(y + k, a);
    _mm256_storeu_pd(y + k + 4, b);
  }
  for (; k + 4 <= n; k += 4) _mm256_storeu_pd(y + k, f(_mm256_loadu_pd(x + k)));
  if (k < n) {
    const __m256i mask = first_lanes(n - k);
    _mm256_maskstore_pd(y + k, mask, f(_mm256_maskload_pd(x + k, mask)));
  }
}

void avx2_exp(const double* x, double* y, std::size_t n) {
  map4(x, y, n, exp4);
}

void avx2_log(const double* x, double* y, std::size_t n) {
  // Masked-off lanes load 0, which log4 maps to garbage that is never
  // stored.
  map4(x, y, n, log4);
}

void avx2_sincos(const double* x, double* s, double* c, std::size_t n) {
  std::size_t k = 0;
  __m256d sv, cv;
  for (; k + 8 <= n; k += 8) {
    __m256d sw, cw;
    sincos4(_mm256_loadu_pd(x + k), &sv, &cv);
    sincos4(_mm256_loadu_pd(x + k + 4), &sw, &cw);
    _mm256_storeu_pd(s + k, sv);
    _mm256_storeu_pd(c + k, cv);
    _mm256_storeu_pd(s + k + 4, sw);
    _mm256_storeu_pd(c + k + 4, cw);
  }
  for (; k + 4 <= n; k += 4) {
    sincos4(_mm256_loadu_pd(x + k), &sv, &cv);
    _mm256_storeu_pd(s + k, sv);
    _mm256_storeu_pd(c + k, cv);
  }
  if (k < n) {
    const __m256i mask = first_lanes(n - k);
    sincos4(_mm256_maskload_pd(x + k, mask), &sv, &cv);
    _mm256_maskstore_pd(s + k, mask, sv);
    _mm256_maskstore_pd(c + k, mask, cv);
  }
}

// Four Philox blocks per vector, one per 64-bit lane, each 32-bit counter
// word zero-extended in its lane: _mm256_mul_epu32 forms the four
// 32×32→64-bit products of a round at once.
struct PhiloxLanes {
  __m256i c0, c1, c2, c3;
};

// Counters ctr + {0, 1, 2, 3}: low words in c0, high words in c1.
inline PhiloxLanes philox_start(__m256i ctr) {
  return {_mm256_and_si256(ctr, splat64(0xffffffffULL)),
          _mm256_srli_epi64(ctr, 32), _mm256_setzero_si256(),
          _mm256_setzero_si256()};
}

inline void philox_round(PhiloxLanes& x, __m256i key0, __m256i key1) {
  using namespace math_detail;
  const __m256i lo32 = splat64(0xffffffffULL);
  const __m256i p0 = _mm256_mul_epu32(x.c0, splat64(kPhiloxM0));
  const __m256i p1 = _mm256_mul_epu32(x.c2, splat64(kPhiloxM1));
  x.c0 = _mm256_xor_si256(_mm256_xor_si256(_mm256_srli_epi64(p1, 32), x.c1),
                          key0);
  x.c1 = _mm256_and_si256(p1, lo32);
  x.c2 = _mm256_xor_si256(_mm256_xor_si256(_mm256_srli_epi64(p0, 32), x.c3),
                          key1);
  x.c3 = _mm256_and_si256(p0, lo32);
}

// Lane j holds block j's words x0 + 2³²·x1 and x2 + 2³²·x3; store them
// interleaved as out[2j], out[2j + 1] for the first `blocks` (≤ 4) lanes.
inline void philox_store(const PhiloxLanes& x, std::uint64_t* out,
                         std::size_t blocks) {
  const __m256i w0 = _mm256_or_si256(x.c0, _mm256_slli_epi64(x.c1, 32));
  const __m256i w1 = _mm256_or_si256(x.c2, _mm256_slli_epi64(x.c3, 32));
  const __m256i a = _mm256_unpacklo_epi64(w0, w1);
  const __m256i b = _mm256_unpackhi_epi64(w0, w1);
  const __m256i first = _mm256_permute2x128_si256(a, b, 0x20);
  const __m256i second = _mm256_permute2x128_si256(a, b, 0x31);
  if (blocks >= 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), first);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4), second);
    return;
  }
  alignas(32) std::uint64_t words[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(words), first);
  _mm256_store_si256(reinterpret_cast<__m256i*>(words + 4), second);
  for (std::size_t w = 0; w < 2 * blocks; ++w) out[w] = words[w];
}

void avx2_philox4x32_10(std::uint64_t key, std::uint64_t counter,
                        std::uint64_t* out, std::size_t blocks) {
  using namespace math_detail;
  __m256i key0[10], key1[10];
  std::uint32_t k0 = static_cast<std::uint32_t>(key);
  std::uint32_t k1 = static_cast<std::uint32_t>(key >> 32);
  for (int round = 0; round < 10; ++round) {
    key0[round] = splat64(k0);
    key1[round] = splat64(k1);
    k0 += kPhiloxW0;
    k1 += kPhiloxW1;
  }
  const __m256i four = splat64(4);
  __m256i ctr =
      _mm256_add_epi64(splat64(counter), _mm256_set_epi64x(3, 2, 1, 0));
  std::size_t i = 0;
  // Eight blocks per step in two independent vectors: a round's multiply
  // latency is hidden behind the other vector's.
  for (; i + 8 <= blocks; i += 8) {
    PhiloxLanes x = philox_start(ctr);
    PhiloxLanes y = philox_start(_mm256_add_epi64(ctr, four));
    for (int round = 0; round < 10; ++round) {
      philox_round(x, key0[round], key1[round]);
      philox_round(y, key0[round], key1[round]);
    }
    philox_store(x, out + 2 * i, 4);
    philox_store(y, out + 2 * i + 8, 4);
    ctr = _mm256_add_epi64(ctr, splat64(8));
  }
  for (; i < blocks; i += 4) {
    PhiloxLanes x = philox_start(ctr);
    for (int round = 0; round < 10; ++round)
      philox_round(x, key0[round], key1[round]);
    philox_store(x, out + 2 * i, blocks - i);
    ctr = _mm256_add_epi64(ctr, four);
  }
}

void avx2_pulse_steps4(const double* state, const double* step,
                       std::size_t steps, double* v) {
  __m256d g = _mm256_loadu_pd(state);
  __m256d r = _mm256_loadu_pd(state + 4);
  __m256d h = _mm256_loadu_pd(state + 8);
  __m256d q = _mm256_loadu_pd(state + 12);
  __m256d c = _mm256_loadu_pd(state + 16);
  __m256d s = _mm256_loadu_pd(state + 20);
  const __m256d g_step = splat(step[0]);
  const __m256d h_step = splat(step[1]);
  const __m256d cos_step = splat(step[2]);
  const __m256d sin_step = splat(step[3]);
  const __m256d a = splat(step[4]);
  for (std::size_t m = 0; m < steps; ++m) {
    _mm256_storeu_pd(v + 4 * m, _mm256_sub_pd(_mm256_mul_pd(g, c),
                                              _mm256_mul_pd(a, h)));
    g = _mm256_mul_pd(g, r);
    r = _mm256_mul_pd(r, g_step);
    h = _mm256_mul_pd(h, q);
    q = _mm256_mul_pd(q, h_step);
    const __m256d next_c = _mm256_sub_pd(_mm256_mul_pd(c, cos_step),
                                         _mm256_mul_pd(s, sin_step));
    s = _mm256_add_pd(_mm256_mul_pd(s, cos_step), _mm256_mul_pd(c, sin_step));
    c = next_c;
  }
}

}  // namespace

const KernelTable* avx2_table_or_null() {
  static constexpr KernelTable table{
      avx2_cmul,         avx2_cmul_conj,
      avx2_cmul_scaled,  avx2_cmul_conj_scaled,
      avx2_scale,        avx2_copy_scaled,
      avx2_butterfly_pairs, avx2_fft_stage,
      avx2_norms_max,    avx2_indices_at_least,
      avx2_cdot_conj,    avx2_corr_real_lags,
      avx2_corr_direct,  avx2_corr_window_update,
      avx2_exp,          avx2_log,
      avx2_sincos,       avx2_philox4x32_10,
      avx2_pulse_steps4,
  };
  return &table;
}

}  // namespace uwb::simd::detail

#else  // !__AVX2__

namespace uwb::simd::detail {
const KernelTable* avx2_table_or_null() { return nullptr; }
}  // namespace uwb::simd::detail

#endif
