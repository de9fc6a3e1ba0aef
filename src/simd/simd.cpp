#include "simd/simd.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "simd/kernel_table.hpp"
#include "simd/math.hpp"

namespace uwb::simd {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These define the operation sequence the vector
// levels reproduce: elementwise kernels must match bit for bit, reduction
// kernels to roundoff (simd.hpp header comment).

namespace {

void scalar_cmul(const double* a, const double* b, double* out,
                 std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = a[2 * k], ai = a[2 * k + 1];
    const double br = b[2 * k], bi = b[2 * k + 1];
    out[2 * k] = ar * br - ai * bi;
    out[2 * k + 1] = ai * br + ar * bi;
  }
}

void scalar_cmul_conj(const double* a, const double* b, double* out,
                      std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = a[2 * k], ai = a[2 * k + 1];
    const double br = b[2 * k], bi = b[2 * k + 1];
    out[2 * k] = ar * br + ai * bi;
    out[2 * k + 1] = ai * br - ar * bi;
  }
}

void scalar_cmul_scaled(const double* a, const double* b, double s,
                        double* out, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = a[2 * k] * s, ai = a[2 * k + 1] * s;
    const double br = b[2 * k], bi = b[2 * k + 1];
    out[2 * k] = ar * br - ai * bi;
    out[2 * k + 1] = ai * br + ar * bi;
  }
}

void scalar_cmul_conj_scaled(const double* a, const double* b, double s,
                             double* out, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = a[2 * k] * s, ai = a[2 * k + 1] * s;
    const double br = b[2 * k], bi = b[2 * k + 1];
    out[2 * k] = ar * br + ai * bi;
    out[2 * k + 1] = ai * br - ar * bi;
  }
}

void scalar_scale(double* x, double s, std::size_t n) {
  for (std::size_t k = 0; k < 2 * n; ++k) x[k] *= s;
}

void scalar_copy_scaled(const double* x, double s, double* out,
                        std::size_t n) {
  for (std::size_t k = 0; k < 2 * n; ++k) out[k] = x[k] * s;
}

void scalar_butterfly_pairs(double* d, std::size_t n) {
  for (std::size_t i = 0; i < 2 * n; i += 4) {
    const double ur = d[i], ui = d[i + 1], vr = d[i + 2], vi = d[i + 3];
    d[i] = ur + vr;
    d[i + 1] = ui + vi;
    d[i + 2] = ur - vr;
    d[i + 3] = ui - vi;
  }
}

void scalar_fft_stage(double* d, const double* w, std::size_t n,
                      std::size_t len, bool inverse) {
  const std::size_t half = len >> 1;
  for (std::size_t i = 0; i < n; i += len) {
    double* a = d + 2 * i;
    double* b = d + 2 * (i + half);
    for (std::size_t j = 0; j < half; ++j) {
      const double wr = w[2 * j];
      const double wi = inverse ? -w[2 * j + 1] : w[2 * j + 1];
      const double xr = b[2 * j], xi = b[2 * j + 1];
      const double vr = xr * wr - xi * wi;
      const double vi = xi * wr + xr * wi;
      const double ur = a[2 * j], ui = a[2 * j + 1];
      a[2 * j] = ur + vr;
      a[2 * j + 1] = ui + vi;
      b[2 * j] = ur - vr;
      b[2 * j + 1] = ui - vi;
    }
  }
}

double scalar_norms_max(const double* y, std::size_t n, double* p) {
  double max_norm = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    p[k] = y[2 * k] * y[2 * k] + y[2 * k + 1] * y[2 * k + 1];
    if (p[k] > max_norm) max_norm = p[k];
  }
  return max_norm;
}

std::size_t scalar_indices_at_least(const double* p, std::size_t n,
                                    double cut, std::size_t* idx) {
  // Every index is written; only those that pass advance the count.
  std::size_t count = 0;
  for (std::size_t k = 0; k < n; ++k) {
    idx[count] = k;
    count += static_cast<std::size_t>(!(p[k] < cut));
  }
  return count;
}

void scalar_cdot_conj(const double* a, const double* b, std::size_t n,
                      double* re, double* im) {
  double acc_r = 0.0, acc_i = 0.0;
  for (std::size_t m = 0; m < n; ++m) {
    const double ar = a[2 * m], ai = a[2 * m + 1];
    const double br = b[2 * m], bi = b[2 * m + 1];
    acc_r += ar * br + ai * bi;
    acc_i += ai * br - ar * bi;
  }
  *re = acc_r;
  *im = acc_i;
}

void scalar_corr_real_lags(const double* r, const double* s, std::size_t n,
                           std::size_t lags, double* y) {
  for (std::size_t k = 0; k < lags; ++k) {
    double acc_r = 0.0, acc_i = 0.0;
    for (std::size_t m = 0; m < n; ++m) {
      acc_r += r[2 * (k + m)] * s[2 * m];
      acc_i += r[2 * (k + m) + 1] * s[2 * m];
    }
    y[2 * k] = acc_r;
    y[2 * k + 1] = acc_i;
  }
}

void scalar_corr_direct(const double* r, const double* s, double* y,
                        std::size_t n, std::size_t np) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t mmax = np < n - i ? np : n - i;
    scalar_cdot_conj(r + 2 * i, s, mmax, &y[2 * i], &y[2 * i + 1]);
  }
}

void scalar_corr_window_update(double* y, const double* d, const double* s,
                              std::ptrdiff_t k_lo, std::ptrdiff_t k_hi,
                              std::ptrdiff_t stride, std::ptrdiff_t w_lo,
                              std::ptrdiff_t w_hi, std::ptrdiff_t np) {
  for (std::ptrdiff_t k = k_lo; k < k_hi; ++k) {
    const std::ptrdiff_t j = k * stride;
    const std::ptrdiff_t p_lo = w_lo > j ? w_lo : j;
    const std::ptrdiff_t p_hi = w_hi < j + np ? w_hi : j + np;
    if (p_lo >= p_hi) continue;
    double acc_r = 0.0, acc_i = 0.0;
    scalar_cdot_conj(d + 2 * (p_lo - w_lo), s + 2 * (p_lo - j),
                     static_cast<std::size_t>(p_hi - p_lo), &acc_r, &acc_i);
    y[2 * k] -= acc_r;
    y[2 * k + 1] -= acc_i;
  }
}

void scalar_exp(const double* x, double* y, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) y[k] = simd::exp(x[k]);
}

void scalar_log(const double* x, double* y, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) y[k] = simd::log(x[k]);
}

void scalar_sincos(const double* x, double* s, double* c, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) simd::sincos(x[k], &s[k], &c[k]);
}

void scalar_philox4x32_10(std::uint64_t key, std::uint64_t counter,
                          std::uint64_t* out, std::size_t blocks) {
  const std::array<std::uint32_t, 2> k{static_cast<std::uint32_t>(key),
                                       static_cast<std::uint32_t>(key >> 32)};
  for (std::size_t i = 0; i < blocks; ++i, ++counter) {
    const std::array<std::uint32_t, 4> x = simd::philox4x32_10(
        {static_cast<std::uint32_t>(counter),
         static_cast<std::uint32_t>(counter >> 32), 0, 0},
        k);
    out[2 * i] = x[0] | (std::uint64_t{x[1]} << 32);
    out[2 * i + 1] = x[2] | (std::uint64_t{x[3]} << 32);
  }
}

void scalar_pulse_steps4(const double* state, const double* step,
                         std::size_t steps, double* v) {
  double g[4], r[4], h[4], q[4], c[4], s[4];
  for (int l = 0; l < 4; ++l) {
    g[l] = state[l];
    r[l] = state[4 + l];
    h[l] = state[8 + l];
    q[l] = state[12 + l];
    c[l] = state[16 + l];
    s[l] = state[20 + l];
  }
  for (std::size_t m = 0; m < steps; ++m) {
    for (int l = 0; l < 4; ++l) {
      v[4 * m + l] = g[l] * c[l] - step[4] * h[l];
      g[l] *= r[l];
      r[l] *= step[0];
      h[l] *= q[l];
      q[l] *= step[1];
      const double next_c = c[l] * step[2] - s[l] * step[3];
      s[l] = s[l] * step[2] + c[l] * step[3];
      c[l] = next_c;
    }
  }
}

}  // namespace

namespace detail {

const KernelTable& scalar_table() {
  static constexpr KernelTable table{
      scalar_cmul,         scalar_cmul_conj,
      scalar_cmul_scaled,  scalar_cmul_conj_scaled,
      scalar_scale,        scalar_copy_scaled,
      scalar_butterfly_pairs, scalar_fft_stage,
      scalar_norms_max,    scalar_indices_at_least,
      scalar_cdot_conj,    scalar_corr_real_lags,
      scalar_corr_direct,  scalar_corr_window_update,
      scalar_exp,          scalar_log,
      scalar_sincos,       scalar_philox4x32_10,
      scalar_pulse_steps4,
  };
  return table;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Dispatch.

namespace {

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const detail::KernelTable* table_for(Level level) {
  switch (level) {
    case Level::kScalar:
      return &detail::scalar_table();
    case Level::kAvx2:
      return cpu_supports_avx2() ? detail::avx2_table_or_null() : nullptr;
  }
  return nullptr;
}

[[noreturn]] void die(const char* message, const char* value) {
  std::fprintf(stderr, "uwb::simd: %s: %s\n", message, value);
  std::abort();
}

/// Resolve the startup level: env override (hard error when unsupported —
/// a forced CI leg must never silently run a narrower path) or AVX2 when
/// the host has it, the scalar reference otherwise.
Level resolve_startup_level() {
  // Process-wide dispatch pin, read exactly once at first use; an
  // unsupported value aborts instead of diverging, so results can depend
  // on it only by refusing to run (the forced-dispatch CI legs rely on
  // exactly this).
  const char* env = std::getenv("UWB_SIMD_LEVEL");
  if (env != nullptr && env[0] != '\0') {
    const auto parsed = parse_level(env);
    if (!parsed)
      die("UWB_SIMD_LEVEL is not one of scalar|avx2", env);
    if (table_for(*parsed) == nullptr)
      die("UWB_SIMD_LEVEL requests a level this build/CPU cannot run", env);
    return *parsed;
  }
  return runtime_max_level();
}

struct Dispatch {
  std::atomic<const detail::KernelTable*> table;
  std::atomic<Level> level;
  Dispatch() {
    const Level l = resolve_startup_level();
    level.store(l, std::memory_order_relaxed);
    table.store(table_for(l), std::memory_order_relaxed);
  }
};

Dispatch& dispatch() {
  static Dispatch d;
  return d;
}

inline const detail::KernelTable& active() {
  return *dispatch().table.load(std::memory_order_relaxed);
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::optional<Level> parse_level(std::string_view name) {
  if (name == "scalar") return Level::kScalar;
  if (name == "avx2") return Level::kAvx2;
  return std::nullopt;
}

Level runtime_max_level() {
  return table_for(Level::kAvx2) != nullptr ? Level::kAvx2 : Level::kScalar;
}

Level active_level() {
  return dispatch().level.load(std::memory_order_relaxed);
}

bool set_active_level(Level level) {
  const detail::KernelTable* table = table_for(level);
  if (table == nullptr) return false;
  Dispatch& d = dispatch();
  d.level.store(level, std::memory_order_relaxed);
  d.table.store(table, std::memory_order_relaxed);
  return true;
}

// ---------------------------------------------------------------------------
// Public kernel entry points: one indirect call through the active table.

void cmul(const double* a, const double* b, double* out, std::size_t n) {
  active().cmul(a, b, out, n);
}

void cmul_conj(const double* a, const double* b, double* out, std::size_t n) {
  active().cmul_conj(a, b, out, n);
}

void cmul_scaled(const double* a, const double* b, double s, double* out,
                 std::size_t n) {
  active().cmul_scaled(a, b, s, out, n);
}

void cmul_conj_scaled(const double* a, const double* b, double s, double* out,
                      std::size_t n) {
  active().cmul_conj_scaled(a, b, s, out, n);
}

void scale(double* x, double s, std::size_t n) { active().scale(x, s, n); }

void copy_scaled(const double* x, double s, double* out, std::size_t n) {
  active().copy_scaled(x, s, out, n);
}

void butterfly_pairs(double* d, std::size_t n) {
  active().butterfly_pairs(d, n);
}

void fft_stage(double* d, const double* w, std::size_t n, std::size_t len,
               bool inverse) {
  active().fft_stage(d, w, n, len, inverse);
}

double norms_max(const double* y, std::size_t n, double* p) {
  return active().norms_max(y, n, p);
}

std::size_t indices_at_least(const double* p, std::size_t n, double cut,
                             std::size_t* idx) {
  return active().indices_at_least(p, n, cut, idx);
}

void cdot_conj(const double* a, const double* b, std::size_t n, double* re,
               double* im) {
  active().cdot_conj(a, b, n, re, im);
}

void corr_real_lags(const double* r, const double* s, std::size_t n,
                    std::size_t lags, double* y) {
  active().corr_real_lags(r, s, n, lags, y);
}

void corr_direct(const double* r, const double* s, double* y, std::size_t n,
                 std::size_t np) {
  active().corr_direct(r, s, y, n, np);
}

void corr_window_update(double* y, const double* d, const double* s,
                        std::ptrdiff_t k_lo, std::ptrdiff_t k_hi,
                        std::ptrdiff_t stride, std::ptrdiff_t w_lo,
                        std::ptrdiff_t w_hi, std::ptrdiff_t np) {
  active().corr_window_update(y, d, s, k_lo, k_hi, stride, w_lo, w_hi, np);
}

void exp(const double* x, double* y, std::size_t n) { active().exp(x, y, n); }

void log(const double* x, double* y, std::size_t n) { active().log(x, y, n); }

void sincos(const double* x, double* s, double* c, std::size_t n) {
  active().sincos(x, s, c, n);
}

void philox4x32_10(std::uint64_t key, std::uint64_t counter,
                   std::uint64_t* out, std::size_t blocks) {
  active().philox4x32_10(key, counter, out, blocks);
}

void pulse_steps4(const double* state, const double* step, std::size_t steps,
                  double* v) {
  active().pulse_steps4(state, step, steps, v);
}

}  // namespace uwb::simd
