// Scalar forms of the elementwise math kernels (DESIGN.md §12.2): e^x,
// ln x, sin/cos and the Philox4x32-10 block.
//
// Each function is one fixed sequence of IEEE-754 double operations (+, −,
// ×, ÷ and bit manipulation), with no libm call and no fused multiply-add,
// so it returns the same bits on every platform and compiler. The array
// kernels of simd.hpp (simd::exp, simd::log, simd::sincos,
// simd::philox4x32_10) run these sequences one element per lane: the scalar
// level calls the functions below, and the AVX2 level repeats each step on
// four lanes, so both levels return exactly these values. The algorithms
// are fdlibm's (Sun Microsystems, 1993), with branches replaced by
// arithmetic that every lane can run.
//
// The AVX2 translation unit includes this header for its constants only:
// an inline function compiled there with -mavx2 could be the copy the
// linker keeps for every caller.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace uwb::simd {

namespace math_detail {

// x·c + 1.5·2⁵² rounds x·c to the nearest integer n, held in the low bits
// of the sum's mantissa: bits(sum) = bits(1.5·2⁵²) + n for |n| < 2⁵¹.
inline constexpr double kRoundToInt = 0x1.8p52;

// e^x: ln 2 in two parts (ln2_hi has 32 significant bits, so k·ln2_hi is
// exact for |k| < 2²¹) and the remez coefficients of fdlibm's e_exp.c.
inline constexpr double kInvLn2 = 1.44269504088896338700e+00;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kExpP1 = 1.66666666666666019037e-01;
inline constexpr double kExpP2 = -2.77777777770155933842e-03;
inline constexpr double kExpP3 = 6.61375632143793436117e-05;
inline constexpr double kExpP4 = -1.65339022054652515390e-06;
inline constexpr double kExpP5 = 4.13813679705723846039e-08;

// ln x: fdlibm's e_log.c coefficients of R(s) ≈ ln((1+s)/(1−s)) − 2s.
inline constexpr double kLogLg1 = 6.666666666666735130e-01;
inline constexpr double kLogLg2 = 3.999999999940941908e-01;
inline constexpr double kLogLg3 = 2.857142874366239149e-01;
inline constexpr double kLogLg4 = 2.222219843214978396e-01;
inline constexpr double kLogLg5 = 1.818357216161805012e-01;
inline constexpr double kLogLg6 = 1.531383769920937332e-01;
inline constexpr double kLogLg7 = 1.479819860511658591e-01;
// Bits that move a mantissa in [√2/2, √2) to [1, 2): 0x3ff00000 −
// 0x3fe6a09e in the high word, where 0x3fe6a09e is the high word of √2/2.
inline constexpr std::uint64_t kLogShift = 0x00095f6200000000ULL;
inline constexpr std::uint64_t kLogSqrtHalf = 0x3fe6a09e00000000ULL;
inline constexpr std::uint64_t kMantissaMask = 0x000fffffffffffffULL;

// sin/cos: π/2 in three parts of fdlibm's e_rem_pio2.c (pio2_1 and pio2_2
// have 33 significant bits, so n·pio2_1 and n·pio2_2 are exact for
// |n| < 2²⁰), then the k_sin.c and k_cos.c polynomials on [−π/4, π/4].
inline constexpr double kInvPio2 = 6.36619772367581382433e-01;
inline constexpr double kPio2_1 = 1.57079632673412561417e+00;
inline constexpr double kPio2_2 = 6.07710050630396597660e-11;
inline constexpr double kPio2_2t = 2.02226624879595063154e-21;
inline constexpr double kSinS1 = -1.66666666666666324348e-01;
inline constexpr double kSinS2 = 8.33333333332248946124e-03;
inline constexpr double kSinS3 = -1.98412698298579493134e-04;
inline constexpr double kSinS4 = 2.75573137070700676789e-06;
inline constexpr double kSinS5 = -2.50507602534068634195e-08;
inline constexpr double kSinS6 = 1.58969099521155010221e-10;
inline constexpr double kCosC1 = 4.16666666666666019037e-02;
inline constexpr double kCosC2 = -1.38888888888741095749e-03;
inline constexpr double kCosC3 = 2.48015872894767294178e-05;
inline constexpr double kCosC4 = -2.75573143513906633035e-07;
inline constexpr double kCosC5 = 2.08757232129817482790e-09;
inline constexpr double kCosC6 = -1.13596475577881948265e-11;

// Philox4x32-10 round multipliers and Weyl key increments (Salmon et al.,
// SC'11).
inline constexpr std::uint64_t kPhiloxM0 = 0xD2511F53;
inline constexpr std::uint64_t kPhiloxM1 = 0xCD9E8D57;
inline constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9;
inline constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85;

}  // namespace math_detail

/// e^x for |x| ≤ 708 (normal results), within 1 ulp of the true value;
/// undefined outside. x = k·ln 2 + r with |r| ≤ ln 2 / 2, then
/// e^r = 1 + r + r·c/(2 − c) with c = r − r²·P(r²), scaled by 2^k.
inline double exp(double x) {
  using namespace math_detail;
  const double kr = x * kInvLn2 + kRoundToInt;
  const double k = kr - kRoundToInt;
  const double hi = x - k * kLn2Hi;
  const double lo = k * kLn2Lo;
  const double r = hi - lo;
  const double t = r * r;
  const double p =
      kExpP1 + t * (kExpP2 + t * (kExpP3 + t * (kExpP4 + t * kExpP5)));
  const double c = r - t * p;
  const double y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  // 2^k: the biased exponent k + 1023 sits in the low bits of kr.
  const std::uint64_t scale = (std::bit_cast<std::uint64_t>(kr) + 1023) << 52;
  return y * std::bit_cast<double>(scale);
}

/// ln x for positive normal x (2⁻¹⁰²² ≤ x < 2¹⁰²⁴), within 1 ulp of the
/// true value; undefined for zero, subnormals, negatives, inf and NaN.
/// x = 2^k·(1 + f) with √2/2 ≤ 1 + f < √2, s = f/(2 + f), and
/// ln(1 + f) = f − f²/2 + s·(f²/2 + R(s)).
inline double log(double x) {
  using namespace math_detail;
  const std::uint64_t shifted = std::bit_cast<std::uint64_t>(x) + kLogShift;
  const double k = static_cast<double>(static_cast<int>(shifted >> 52) - 1023);
  const double f =
      std::bit_cast<double>((shifted & kMantissaMask) + kLogSqrtHalf) - 1.0;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLogLg2 + w * (kLogLg4 + w * kLogLg6));
  const double t2 = z * (kLogLg1 + w * (kLogLg3 + w * (kLogLg5 + w * kLogLg7)));
  const double r = t2 + t1;
  return s * (hfsq + r) + k * kLn2Lo - hfsq + f + k * kLn2Hi;
}

/// The reduced argument of sincos: x = n·π/2 + (y0 + y1) with |y0| ≲ π/4,
/// and the quadrant n mod 4.
struct ReducedAngle {
  double y0;
  double y1;
  std::uint64_t quadrant;
};

/// Cody–Waite reduction by π/2 in three parts, good to about 118 bits for
/// |x| ≤ 1024 (fdlibm's second iteration, taken for every argument).
inline ReducedAngle reduce_pio2(double x) {
  using namespace math_detail;
  const double nr = x * kInvPio2 + kRoundToInt;
  const double n = nr - kRoundToInt;
  const double t = x - n * kPio2_1;
  double w = n * kPio2_2;
  const double r = t - w;
  w = n * kPio2_2t - ((t - r) - w);
  const double y0 = r - w;
  return {y0, (r - y0) - w, std::bit_cast<std::uint64_t>(nr) & 3};
}

/// sin(y0 + y1) for |y0 + y1| ≤ π/4 (fdlibm's k_sin.c).
inline double sin_kernel(double y0, double y1) {
  using namespace math_detail;
  const double z = y0 * y0;
  const double w = z * z;
  const double r =
      kSinS2 + z * (kSinS3 + z * kSinS4) + z * w * (kSinS5 + z * kSinS6);
  const double v = z * y0;
  return y0 - ((z * (0.5 * y1 - v * r) - y1) - v * kSinS1);
}

/// cos(y0 + y1) for |y0 + y1| ≤ π/4 (fdlibm's k_cos.c).
inline double cos_kernel(double y0, double y1) {
  using namespace math_detail;
  const double z = y0 * y0;
  const double w = z * z;
  const double r = z * (kCosC1 + z * (kCosC2 + z * kCosC3)) +
                   w * w * (kCosC4 + z * (kCosC5 + z * kCosC6));
  const double hz = 0.5 * z;
  const double v = 1.0 - hz;
  return v + (((1.0 - v) - hz) + (z * r - y0 * y1));
}

/// sin x and cos x for |x| ≤ 1024, each within 1 ulp of the true value;
/// undefined outside.
inline void sincos(double x, double* sin_x, double* cos_x) {
  const ReducedAngle a = reduce_pio2(x);
  double s = sin_kernel(a.y0, a.y1);
  double c = cos_kernel(a.y0, a.y1);
  // Quadrant n: (sin, cos) = (s, c), (c, −s), (−s, −c), (−c, s).
  if (a.quadrant & 1) {
    const double t = s;
    s = c;
    c = -t;
  }
  if (a.quadrant & 2) {
    s = -s;
    c = -c;
  }
  *sin_x = s;
  *cos_x = c;
}

/// One Philox4x32-10 block: ten rounds of the Philox multiply-xor round on
/// the counter `ctr`, the key bumped by the Weyl constants before every
/// round but the first (the Random123 reference; counter 0 under key 0
/// gives 6627e8d5 e169c58d bc57ac4c 9b00dbd8).
inline std::array<std::uint32_t, 4> philox4x32_10(
    std::array<std::uint32_t, 4> ctr, std::array<std::uint32_t, 2> key) {
  using namespace math_detail;
  for (int round = 0; round < 10; ++round) {
    if (round > 0) {
      key[0] += kPhiloxW0;
      key[1] += kPhiloxW1;
    }
    // 32×32→64-bit products: their high halves mix, their low halves move.
    const std::uint64_t p0 = kPhiloxM0 * ctr[0];
    const std::uint64_t p1 = kPhiloxM1 * ctr[2];
    ctr = {static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ key[0],
           static_cast<std::uint32_t>(p1),
           static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ key[1],
           static_cast<std::uint32_t>(p0)};
  }
  return ctr;
}

}  // namespace uwb::simd
