// Portable SIMD layer for the complex-double DSP hot paths (DESIGN.md §12).
//
// One header exposes the vectorized kernels the detection pipeline is built
// on: pointwise complex multiplies (FFT chirp/kernel products, bank
// correlation spectra), FFT butterfly stages, the squared magnitudes and
// threshold scan of the peak pick's candidate search, and windowed complex
// correlations (matched filter, the candidates' lag blocks over a real
// template, incremental subtract-update). Every kernel operates on the
// interleaved re/im double pairs of a `Complex` array — the array-oriented
// access already used by the scalar fast path — so callers pass
// `reinterpret_cast<double*>(CVec::data())` and a *complex* element count.
// Five real-valued kernels serve the diffuse tail and the CIR render
// instead: e^x, ln x, sin/cos and bulk Philox4x32-10 words, each the array
// form of a scalar function in simd/math.hpp, and four lanes of the
// render's pulse recurrence.
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
// butterfly stages, norms_max, indices_at_least and the real-valued
// kernels) perform the exact scalar operation sequence per element and are
// bit-identical across levels. Reduction kernels (cdot_conj, corr_*) may
// reassociate the accumulation at AVX2 width and agree with scalar only to
// floating-point roundoff; corr_real_lags reproduces cdot_conj of the same
// level bit for bit. Given a fixed level, every kernel is deterministic,
// so the derive_seed bit-identity contract (same results at any thread
// count) holds under SIMD.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// p[k] = re(y[k])^2 + im(y[k])^2 for n complexes, std::norm's operation
/// sequence; returns the largest p[k] (0 when n is 0). `p` holds n doubles.
double norms_max(const double* y, std::size_t n, double* p);

/// Writes the indices k < n with !(p[k] < cut), ascending, to `idx` and
/// returns how many there are. `idx` holds n entries.
std::size_t indices_at_least(const double* p, std::size_t n, double cut,
                             std::size_t* idx);

/// *re + i*im = sum_{m<n} a[m] * conj(b[m]).
void cdot_conj(const double* a, const double* b, std::size_t n, double* re,
               double* im);

/// Correlation with a real template at `lags` consecutive positions:
/// y[k] = sum_{m<n} r[k + m] * re(s[m]) for k < lags, one accumulator per
/// lag in cdot_conj's order at the same level, reading r[0 .. n + lags - 1)
/// and only the real parts of s. When every imaginary part of s is ±0 and
/// r is finite, the products cdot_conj adds on top are ±0 and its
/// accumulators are never -0, so y[k] equals cdot_conj(r + k, s, n) bit
/// for bit. n, lags >= 1; `y` holds `lags` complexes and must not alias r
/// or s.
void corr_real_lags(const double* r, const double* s, std::size_t n,
                    std::size_t lags, double* y);

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

// ---------------------------------------------------------------------------
// Real-valued elementwise kernels (DESIGN.md §12.2): simd/math.hpp's scalar
// functions, one element per lane. `n` counts doubles; outputs may alias
// inputs exactly.

/// y[k] = simd::exp(x[k]) for n elements, each |x[k]| ≤ 708.
void exp(const double* x, double* y, std::size_t n);

/// y[k] = simd::log(x[k]) for n positive normal elements.
void log(const double* x, double* y, std::size_t n);

/// simd::sincos(x[k], &s[k], &c[k]) for n elements, each |x[k]| ≤ 1024.
void sincos(const double* x, double* s, double* c, std::size_t n);

/// Four recurrences of the CIR render's pulse stepper, one per lane,
/// stepped `steps` times. `state` holds g, r, h, q, c, s, four of each
/// (lane l's g at state[l], its r at state[4 + l], ...), and `step` =
/// {g_step, h_step, cos_step, sin_step, a}. Step m writes
/// v[4m + l] = g·c − a·h, then updates g ← g·r, r ← r·g_step, h ← h·q,
/// q ← q·h_step and (c, s) ← (c·cos_step − s·sin_step,
/// s·cos_step + c·sin_step).
void pulse_steps4(const double* state, const double* step, std::size_t steps,
                  double* v);

/// Philox4x32-10 blocks counter, counter + 1, ..., counter + blocks − 1
/// (mod 2⁶⁴) under `key`, two words per block: block b's 32-bit outputs
/// x0..x3 of simd::philox4x32_10({b mod 2³², b / 2³², 0, 0},
/// {key mod 2³², key / 2³²}) become out[2i] = x0 + 2³²·x1 and
/// out[2i + 1] = x2 + 2³²·x3 for b = counter + i.
void philox4x32_10(std::uint64_t key, std::uint64_t counter,
                   std::uint64_t* out, std::size_t blocks);

}  // namespace uwb::simd
