// Four-lane float vectors, the owned exponential and the one softmax row
// routine that softmax_rows, masked_softmax_rows and tensor::attention share
// (DESIGN.md §3k gives the spec and why it keeps those paths bitwise equal).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

namespace gnntrans::tensor {

// Four float lanes (SSE2 on the x86-64 baseline). Lane arithmetic is the same
// IEEE single-precision add, multiply and divide as the scalar code.
typedef float F32x4 __attribute__((vector_size(16)));
typedef std::uint32_t U32x4 __attribute__((vector_size(16)));
inline constexpr std::size_t kLanes = 4;

inline F32x4 load4(const float* p) {
  F32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, F32x4 v) { std::memcpy(p, &v, sizeof v); }

/// e^x per lane, without libm: Cody–Waite reduction x = n·ln2 + r with
/// n = round(x·log2 e), then the Cephes expf polynomial p(r) and p · 2^n by
/// an exponent-field add. Within 1 ULP of libm's expf on [ln FLT_MIN, 0]
/// (tests/test_exp.cpp checks every float there); exactly 1 at ±0; +0 below
/// ln FLT_MIN (no subnormal results) and at −inf; +inf above ln FLT_MAX; NaN
/// stays NaN. Every operation is a plain IEEE lane operation, so the bits do
/// not depend on the host's libm.
inline F32x4 exp_f32(F32x4 x) {
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kLn2Hi = 0.693359375f;  // 9 significant bits: n·kLn2Hi is exact
  constexpr float kLn2Lo = -2.12194440e-4f;
  constexpr float kShift = 12582912.0f;  // 1.5·2^23: adding it rounds to an integer
  constexpr float kMinArg = -87.33654022216796875f;  // least x with e^x ≥ FLT_MIN
  constexpr float kMaxArg = 88.72283172607421875f;   // greatest x with e^x ≤ FLT_MAX
  constexpr float kInf = std::numeric_limits<float>::infinity();

  const F32x4 t = x * kLog2e + kShift;  // n sits in the low mantissa bits of t
  const F32x4 n = t - kShift;
  F32x4 r = x - n * kLn2Hi;
  r = r - n * kLn2Lo;

  // 1 + r + r^2 P(r), P's six coefficients in Estrin's order (three
  // independent pairs), a shorter dependency chain than Horner's.
  const F32x4 r2 = r * r;
  const F32x4 p01 = 1.9875691500e-4f * r + 1.3981999507e-3f;
  const F32x4 p23 = 8.3334519073e-3f * r + 4.1665795894e-2f;
  const F32x4 p45 = 1.6666665459e-1f * r + 5.0000001201e-1f;
  const F32x4 p = ((p01 * r2 + p23) * r2 + p45) * r2 + r + 1.0f;

  // p · 2^n by adding n to p's exponent field: exact, as a multiply by 2^n
  // would be, because on [kMinArg, kMaxArg] the result is normal (p ≥ 1 when
  // n = −126, p < 1 when n = 128). t's bits are kShift's plus n, and kShift's
  // own bits shift out. Lanes outside that range carry garbage here and are
  // replaced below; unsigned lanes keep them free of overflow.
  const U32x4 n_bits = std::bit_cast<U32x4>(t) << 23;
  const F32x4 y = std::bit_cast<F32x4>(std::bit_cast<U32x4>(p) + n_bits);
  const F32x4 zero = {0.0f, 0.0f, 0.0f, 0.0f};
  const F32x4 inf = {kInf, kInf, kInf, kInf};
  return x < kMinArg ? zero : (x > kMaxArg ? inf : y);
}

/// Softmax of one row of \p m scores, in place. Masked keys must already read
/// −inf; they come out as +0. The caller skips rows with no unmasked key. The
/// order is fixed: lane-wise max over 4-key blocks (the tail block padded with
/// −inf), exp_f32 per block, a 4-lane denominator summed block by block and
/// closed by the tree (l0 + l1) + (l2 + l3), then a lane-wise divide.
void softmax_row(float* row, std::size_t m);

}  // namespace gnntrans::tensor
