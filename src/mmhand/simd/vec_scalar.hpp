#pragma once

// Width-1 "vector" backend: plain doubles behind the same interface as
// vec_avx2/vec_neon, so the generic kernel bodies in kernels_body.inl
// instantiate unchanged.  This is the table every host can run and the
// one `MMHAND_SIMD=scalar` selects.  fmadd/fnmadd are a separate
// multiply and add (unfused), so width-1 results are the same on every
// build and host (DESIGN §9).

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace mmhand::simd {

/// Bit constants of `split_exponent`, shared by every backend: the bits
/// of sqrt(1/2), their distance to the bits of 1.0, and the mantissa.
constexpr std::uint64_t kSqrtHalfBits = 0x3fe6a09e667f3bcdull;
constexpr std::uint64_t kSqrtHalfOffset =
    0x3ff0000000000000ull - kSqrtHalfBits;
constexpr std::uint64_t kMantissaMask = 0x000fffffffffffffull;

struct VScalar {
  static constexpr int kWidth = 1;
  double v;

  static VScalar load(const double* p) { return {*p}; }
  void store(double* p) const { *p = v; }
  static VScalar broadcast(double x) { return {x}; }
  static VScalar zero() { return {0.0}; }

  friend VScalar operator+(VScalar a, VScalar b) { return {a.v + b.v}; }
  friend VScalar operator-(VScalar a, VScalar b) { return {a.v - b.v}; }
  friend VScalar operator*(VScalar a, VScalar b) { return {a.v * b.v}; }
  friend VScalar operator/(VScalar a, VScalar b) { return {a.v / b.v}; }

  /// a*b + c
  static VScalar fmadd(VScalar a, VScalar b, VScalar c) {
    return {a.v * b.v + c.v};
  }
  /// c - a*b
  static VScalar fnmadd(VScalar a, VScalar b, VScalar c) {
    return {c.v - a.v * b.v};
  }
  static VScalar sqrt(VScalar a) { return {std::sqrt(a.v)}; }

  /// x = 2^e * m for a positive normal x, with m in [sqrt(1/2), sqrt(2)):
  /// returns e and stores m.  Offsetting the bits by 1 - sqrt(1/2) moves
  /// the exponent boundary from 1 to sqrt(1/2).
  static VScalar split_exponent(VScalar x, VScalar* m) {
    const std::uint64_t ix =
        std::bit_cast<std::uint64_t>(x.v) + kSqrtHalfOffset;
    m->v = std::bit_cast<double>((ix & kMantissaMask) + kSqrtHalfBits);
    return {static_cast<double>(ix >> 52) - 1023.0};
  }
};

/// Float twin for the GEMM tile kernel; fmadd is unfused here too.
struct VScalarF {
  static constexpr int kWidth = 1;
  float v;

  static VScalarF load(const float* p) { return {*p}; }
  void store(float* p) const { *p = v; }
  static VScalarF broadcast(float x) { return {x}; }
  static VScalarF zero() { return {0.0f}; }
  static VScalarF gather(const float* base, const int* idx) {
    return {base[*idx]};
  }

  friend VScalarF operator+(VScalarF a, VScalarF b) { return {a.v + b.v}; }

  /// a*b + c
  static VScalarF fmadd(VScalarF a, VScalarF b, VScalarF c) {
    return {a.v * b.v + c.v};
  }

  /// A 1 x 1 block is its own transpose.
  static void transpose(VScalarF*) {}
};

}  // namespace mmhand::simd
