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
// them once at the end, so they agree with scalar to roundoff only.
#include "simd/kernel_table.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

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

std::size_t avx2_argmax_norm(const double* y, std::size_t n) {
  // Four |y|^2 per iteration. hadd interleaves the two source vectors per
  // 128-bit lane, so lane l of the norm vector tracks complex indices
  // j + {0, 2, 1, 3}[l]. Strict > per lane keeps the first maximum within
  // a lane; the final reduction prefers the lowest index among lanes with
  // equal norms — together exactly the scalar first-maximum scan.
  std::size_t j = 0;
  __m256d best = _mm256_set1_pd(-1.0);
  __m256d best_idx = _mm256_setzero_pd();
  const __m256d lane_off = _mm256_set_pd(3.0, 1.0, 2.0, 0.0);
  const __m256d four = _mm256_set1_pd(4.0);
  __m256d idx = lane_off;
  for (; j + 4 <= n; j += 4) {
    const __m256d v0 = _mm256_loadu_pd(y + 2 * j);
    const __m256d v1 = _mm256_loadu_pd(y + 2 * j + 4);
    const __m256d nrm = _mm256_hadd_pd(_mm256_mul_pd(v0, v0),
                                       _mm256_mul_pd(v1, v1));
    const __m256d gt = _mm256_cmp_pd(nrm, best, _CMP_GT_OQ);
    best = _mm256_blendv_pd(best, nrm, gt);
    best_idx = _mm256_blendv_pd(best_idx, idx, gt);
    idx = _mm256_add_pd(idx, four);
  }
  double norms[4], idxs[4];
  _mm256_storeu_pd(norms, best);
  _mm256_storeu_pd(idxs, best_idx);
  double max_norm = -1.0;
  std::size_t max_idx = 0;
  for (int l = 0; l < 4; ++l) {
    const auto cand = static_cast<std::size_t>(idxs[l]);
    if (norms[l] > max_norm ||
        (norms[l] == max_norm && cand < max_idx)) {
      max_norm = norms[l];
      max_idx = cand;
    }
  }
  for (; j < n; ++j) {
    const double nrm = y[2 * j] * y[2 * j] + y[2 * j + 1] * y[2 * j + 1];
    if (nrm > max_norm) {
      max_norm = nrm;
      max_idx = j;
    }
  }
  return max_idx;
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

}  // namespace

const KernelTable* avx2_table_or_null() {
  static constexpr KernelTable table{
      avx2_cmul,         avx2_cmul_conj,
      avx2_cmul_scaled,  avx2_cmul_conj_scaled,
      avx2_scale,        avx2_copy_scaled,
      avx2_butterfly_pairs, avx2_fft_stage,
      avx2_argmax_norm,  avx2_cdot_conj,
      avx2_corr_direct,  avx2_corr_window_update,
  };
  return &table;
}

}  // namespace uwb::simd::detail

#else  // !__AVX2__

namespace uwb::simd::detail {
const KernelTable* avx2_table_or_null() { return nullptr; }
}  // namespace uwb::simd::detail

#endif
