// Internal dispatch table shared by the per-level kernel translation units.
// Each level fills one KernelTable with its implementations; simd.cpp picks
// the table for the active level. Not installed into the public API — only
// simd.cpp and kernels_avx2.cpp include this.
#pragma once

#include <cstddef>

namespace uwb::simd::detail {

struct KernelTable {
  void (*cmul)(const double*, const double*, double*, std::size_t);
  void (*cmul_conj)(const double*, const double*, double*, std::size_t);
  void (*cmul_scaled)(const double*, const double*, double, double*,
                      std::size_t);
  void (*cmul_conj_scaled)(const double*, const double*, double, double*,
                           std::size_t);
  void (*scale)(double*, double, std::size_t);
  void (*copy_scaled)(const double*, double, double*, std::size_t);
  void (*butterfly_pairs)(double*, std::size_t);
  void (*fft_stage)(double*, const double*, std::size_t, std::size_t, bool);
  std::size_t (*argmax_norm)(const double*, std::size_t);
  void (*cdot_conj)(const double*, const double*, std::size_t, double*,
                    double*);
  void (*corr_direct)(const double*, const double*, double*, std::size_t,
                      std::size_t);
  void (*corr_window_update)(double*, const double*, const double*,
                             std::ptrdiff_t, std::ptrdiff_t, std::ptrdiff_t,
                             std::ptrdiff_t, std::ptrdiff_t, std::ptrdiff_t);
};

/// The scalar reference table (always available; defines the semantics the
/// vector tables must reproduce).
const KernelTable& scalar_table();

/// The AVX2 table, or nullptr when the binary was built without AVX2
/// (non-x86 targets, or a compiler without -mavx2). Runtime CPU support is
/// checked separately by simd.cpp.
const KernelTable* avx2_table_or_null();

}  // namespace uwb::simd::detail
