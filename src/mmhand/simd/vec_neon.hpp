#pragma once

// NEON backend: 2 double lanes, 4 float lanes for GEMM (aarch64 only;
// AArch32 NEON lacks float64x2 arithmetic).  Guarded so the header
// stays self-contained on other architectures.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>

#include "mmhand/simd/vec_scalar.hpp"  // split_exponent bit constants

namespace mmhand::simd {

struct VNeon {
  static constexpr int kWidth = 2;
  float64x2_t v;

  static VNeon load(const double* p) { return {vld1q_f64(p)}; }
  void store(double* p) const { vst1q_f64(p, v); }
  static VNeon broadcast(double x) { return {vdupq_n_f64(x)}; }
  static VNeon zero() { return {vdupq_n_f64(0.0)}; }

  friend VNeon operator+(VNeon a, VNeon b) { return {vaddq_f64(a.v, b.v)}; }
  friend VNeon operator-(VNeon a, VNeon b) { return {vsubq_f64(a.v, b.v)}; }
  friend VNeon operator*(VNeon a, VNeon b) { return {vmulq_f64(a.v, b.v)}; }
  friend VNeon operator/(VNeon a, VNeon b) { return {vdivq_f64(a.v, b.v)}; }

  /// a*b + c
  static VNeon fmadd(VNeon a, VNeon b, VNeon c) {
    return {vfmaq_f64(c.v, a.v, b.v)};
  }
  /// c - a*b
  static VNeon fnmadd(VNeon a, VNeon b, VNeon c) {
    return {vfmsq_f64(c.v, a.v, b.v)};
  }
  static VNeon sqrt(VNeon a) { return {vsqrtq_f64(a.v)}; }

  /// VScalar::split_exponent per lane.
  static VNeon split_exponent(VNeon x, VNeon* m) {
    const uint64x2_t ix =
        vaddq_u64(vreinterpretq_u64_f64(x.v), vdupq_n_u64(kSqrtHalfOffset));
    m->v = vreinterpretq_f64_u64(vaddq_u64(
        vandq_u64(ix, vdupq_n_u64(kMantissaMask)),
        vdupq_n_u64(kSqrtHalfBits)));
    return {vsubq_f64(vcvtq_f64_u64(vshrq_n_u64(ix, 52)),
                      vdupq_n_f64(1023.0))};
  }
};

/// 4 float lanes for the GEMM tile kernel.
struct VNeonF {
  static constexpr int kWidth = 4;
  float32x4_t v;

  static VNeonF load(const float* p) { return {vld1q_f32(p)}; }
  void store(float* p) const { vst1q_f32(p, v); }
  static VNeonF broadcast(float x) { return {vdupq_n_f32(x)}; }
  static VNeonF zero() { return {vdupq_n_f32(0.0f)}; }
  /// Lane j = base[idx[j]] (NEON has no gather; four lane loads).
  static VNeonF gather(const float* base, const int* idx) {
    float32x4_t v = vld1q_dup_f32(base + idx[0]);
    v = vld1q_lane_f32(base + idx[1], v, 1);
    v = vld1q_lane_f32(base + idx[2], v, 2);
    return {vld1q_lane_f32(base + idx[3], v, 3)};
  }

  friend VNeonF operator+(VNeonF a, VNeonF b) { return {vaddq_f32(a.v, b.v)}; }

  /// a*b + c
  static VNeonF fmadd(VNeonF a, VNeonF b, VNeonF c) {
    return {vfmaq_f32(c.v, a.v, b.v)};
  }

  /// In-place 4 x 4 transpose: rows[i] lane j <-> rows[j] lane i.
  static void transpose(VNeonF* rows) {
    const float32x4x2_t lo = vtrnq_f32(rows[0].v, rows[1].v);
    const float32x4x2_t hi = vtrnq_f32(rows[2].v, rows[3].v);
    for (int i = 0; i < 2; ++i) {
      rows[i].v =
          vcombine_f32(vget_low_f32(lo.val[i]), vget_low_f32(hi.val[i]));
      rows[i + 2].v =
          vcombine_f32(vget_high_f32(lo.val[i]), vget_high_f32(hi.val[i]));
    }
  }
};

}  // namespace mmhand::simd

#endif  // __aarch64__
