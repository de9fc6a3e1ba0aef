// Portable SIMD layer for the complex-double DSP hot paths (DESIGN.md §12).
//
// One header exposes the vectorized kernels the detection pipeline is built
// on: pointwise complex multiplies (FFT chirp/kernel products, bank
// correlation spectra), FFT butterfly stages, squared-magnitude argmax
// (peak pick), and windowed complex correlations (matched filter,
// incremental subtract-update). Every kernel operates on the interleaved
// re/im double pairs of a `Complex` array — the array-oriented access
// already used by the scalar fast path — so callers pass
// `reinterpret_cast<double*>(CVec::data())` and a *complex* element count.
//
// Two dispatch levels: a scalar reference (plain loops, the semantics
// contract) and AVX2. The AVX2 kernels live in their own translation unit
// (only `kernels_avx2.cpp` is compiled with `-mavx2`), selected at runtime
// through a function-pointer table:
//
//   active level = UWB_SIMD_LEVEL env override  (scalar|avx2; forcing an
//                                                unsupported level is a
//                                                hard startup error so CI
//                                                legs can never silently
//                                                fall back)
//                ∩ runtime CPU support          (__builtin_cpu_supports)
//                ∩ compile-time availability    (#ifdef __AVX2__ guard)
//
// Equivalence contract: elementwise kernels (cmul*, scale, copy_scaled,
// butterfly stages) perform the exact scalar operation sequence per element
// and are bit-identical across levels. Reduction kernels (cdot_conj,
// corr_*) may reassociate the accumulation at AVX2 width and agree with
// scalar only to floating-point roundoff; argmax_norm resolves ties to the
// lowest index at every level, matching the scalar first-maximum scan
// exactly. Given a fixed level, every kernel is deterministic, so the
// derive_seed bit-identity contract (same results at any thread count)
// holds under SIMD.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace uwb::simd {

/// Dispatch level, ordered by width. Values are stable (bench args, logs).
enum class Level : int { kScalar = 0, kAvx2 = 2 };

/// Lower-case name used by UWB_SIMD_LEVEL and diagnostics.
const char* level_name(Level level);

/// Parse a level name ("scalar", "avx2"); nullopt on anything else.
std::optional<Level> parse_level(std::string_view name);

/// Widest level this binary can execute on this machine (compile-time
/// kernel availability ∩ runtime CPU feature detection).
Level runtime_max_level();

/// The level kernels currently dispatch to. Resolved once on first use:
/// the UWB_SIMD_LEVEL environment override when set (aborting with a clear
/// message if it names an unsupported level — a forced CI leg must never
/// silently run narrower), otherwise runtime_max_level().
Level active_level();

/// Override the dispatch level in-process (tests, per-level benches).
/// Returns false (and changes nothing) when `level` exceeds
/// runtime_max_level(). Call only while no other thread is inside a
/// kernel: the level is meant to be fixed for the duration of a run.
bool set_active_level(Level level);

// ---------------------------------------------------------------------------
// Kernels. `n` counts complex elements; pointers address interleaved
// re/im doubles (2n doubles). `out` may alias `a` unless noted.

/// out[k] = a[k] * b[k].
void cmul(const double* a, const double* b, double* out, std::size_t n);

/// out[k] = a[k] * conj(b[k]).
void cmul_conj(const double* a, const double* b, double* out, std::size_t n);

/// out[k] = (a[k] * s) * b[k]  (the scale is applied to `a` first, exactly
/// as the Bluestein inverse-chirp loop orders it).
void cmul_scaled(const double* a, const double* b, double s, double* out,
                 std::size_t n);

/// out[k] = (a[k] * s) * conj(b[k]).
void cmul_conj_scaled(const double* a, const double* b, double s, double* out,
                      std::size_t n);

/// x[k] *= s for all n complex elements (2n doubles).
void scale(double* x, double s, std::size_t n);

/// out[k] = x[k] * s. `out` must not alias `x` partially (equal or disjoint).
void copy_scaled(const double* x, double s, double* out, std::size_t n);

/// Radix-2 FFT stage with span 2 (twiddle 1): pairwise butterflies
/// d[2k] <- d[2k] + d[2k+1], d[2k+1] <- d[2k] - d[2k+1] over n complexes.
/// n must be even.
void butterfly_pairs(double* d, std::size_t n);

/// General radix-2 FFT stage of span `len` over n complexes: for every
/// block at i (step len) and j < len/2, with w = tw[j] (conjugated when
/// `inverse`), v = d[i+len/2+j]*w; d[i+len/2+j] = d[i+j]-v;
/// d[i+j] += v. `w` points at the interleaved forward twiddle table for
/// this stage (len/2 entries). Requires len >= 8 (the 2- and 4-span
/// stages are multiplication-free and handled by the caller).
void fft_stage(double* d, const double* w, std::size_t n, std::size_t len,
               bool inverse);

/// Index of the first maximum of |y[k]|^2 over n complexes (ties resolve
/// to the lowest index, matching a scalar first-maximum scan). n >= 1.
std::size_t argmax_norm(const double* y, std::size_t n);

/// *re + i*im = sum_{m<n} a[m] * conj(b[m]).
void cdot_conj(const double* a, const double* b, std::size_t n, double* re,
               double* im);

/// Full correlation y[i] = sum_{m < min(np, n-i)} r[i+m] * conj(s[m]) for
/// i < n (template samples beyond the end of r are treated as zero).
/// `y` holds n complexes and must not alias r or s.
void corr_direct(const double* r, const double* s, double* y, std::size_t n,
                 std::size_t np);

/// Windowed correlation update on a strided output grid (the incremental
/// subtract-update of the search-and-subtract fast path): for k in
/// [k_lo, k_hi), with j = k * stride,
///   y[k] -= sum_{p = max(w_lo, j)}^{min(w_hi, j + np) - 1}
///             d[p - w_lo] * conj(s[p - j])
/// where d holds the subtracted waveform over residual samples
/// [w_lo, w_hi) and s is the np-sample template. stride >= 1.
void corr_window_update(double* y, const double* d, const double* s,
                        std::ptrdiff_t k_lo, std::ptrdiff_t k_hi,
                        std::ptrdiff_t stride, std::ptrdiff_t w_lo,
                        std::ptrdiff_t w_hi, std::ptrdiff_t np);

}  // namespace uwb::simd
