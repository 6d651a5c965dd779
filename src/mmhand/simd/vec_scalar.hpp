#pragma once

// Width-1 "vector" backend: plain doubles behind the same interface as
// vec_avx2/vec_neon, so the generic kernel bodies in kernels_body.inl
// instantiate unchanged.  This is the table every host can run and the
// one `MMHAND_SIMD=scalar` selects.  fmadd/fmsub are a separate multiply
// and add, as in the pre-SIMD reference code, so the width-1 radar cube
// matches that code bitwise (DESIGN §9).

#include <cmath>
#include <cstddef>

namespace mmhand::simd {

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

  /// a*b + c
  static VScalar fmadd(VScalar a, VScalar b, VScalar c) {
    return {a.v * b.v + c.v};
  }
  /// a*b - c
  static VScalar fmsub(VScalar a, VScalar b, VScalar c) {
    return {a.v * b.v - c.v};
  }
  static VScalar sqrt(VScalar a) { return {std::sqrt(a.v)}; }
};

/// Float twin for the GEMM tile kernel; fmadd is unfused here too.
struct VScalarF {
  static constexpr int kWidth = 1;
  float v;

  static VScalarF load(const float* p) { return {*p}; }
  void store(float* p) const { *p = v; }
  static VScalarF broadcast(float x) { return {x}; }
  static VScalarF zero() { return {0.0f}; }

  friend VScalarF operator+(VScalarF a, VScalarF b) { return {a.v + b.v}; }

  /// a*b + c
  static VScalarF fmadd(VScalarF a, VScalarF b, VScalarF c) {
    return {a.v * b.v + c.v};
  }

  /// A 1 x 1 block is its own transpose.
  static void transpose(VScalarF*) {}
};

}  // namespace mmhand::simd
