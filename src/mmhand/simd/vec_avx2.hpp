#pragma once

// AVX2 backend: 4 double lanes, 8 float lanes for GEMM.  The whole
// header is guarded on __AVX2__ so it stays self-contained in
// translation units compiled without -mavx2 (the header-lint gate
// builds every header standalone with the base toolchain flags); only
// kernels_avx2.cpp, which gets per-file -mavx2 -mfma, sees the
// contents.

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstddef>

#include "mmhand/simd/vec_scalar.hpp"  // split_exponent bit constants

namespace mmhand::simd {

struct VAvx2 {
  static constexpr int kWidth = 4;
  __m256d v;

  static VAvx2 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  static VAvx2 broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static VAvx2 zero() { return {_mm256_setzero_pd()}; }

  friend VAvx2 operator+(VAvx2 a, VAvx2 b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend VAvx2 operator-(VAvx2 a, VAvx2 b) {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend VAvx2 operator*(VAvx2 a, VAvx2 b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  friend VAvx2 operator/(VAvx2 a, VAvx2 b) {
    return {_mm256_div_pd(a.v, b.v)};
  }

  /// a*b + c
  static VAvx2 fmadd(VAvx2 a, VAvx2 b, VAvx2 c) {
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
  }
  /// c - a*b
  static VAvx2 fnmadd(VAvx2 a, VAvx2 b, VAvx2 c) {
    return {_mm256_fnmadd_pd(a.v, b.v, c.v)};
  }
  static VAvx2 sqrt(VAvx2 a) { return {_mm256_sqrt_pd(a.v)}; }

  /// VScalar::split_exponent per lane.  The biased exponent becomes a
  /// double through the 2^52 magic number (AVX2 has no int64 -> double).
  static VAvx2 split_exponent(VAvx2 x, VAvx2* m) {
    const __m256i ix = _mm256_add_epi64(
        _mm256_castpd_si256(x.v),
        _mm256_set1_epi64x(static_cast<long long>(kSqrtHalfOffset)));
    m->v = _mm256_castsi256_pd(_mm256_add_epi64(
        _mm256_and_si256(
            ix, _mm256_set1_epi64x(static_cast<long long>(kMantissaMask))),
        _mm256_set1_epi64x(static_cast<long long>(kSqrtHalfBits))));
    const __m256d magic = _mm256_set1_pd(4503599627370496.0);  // 2^52
    const __m256d e = _mm256_castsi256_pd(
        _mm256_or_si256(_mm256_srli_epi64(ix, 52), _mm256_castpd_si256(magic)));
    return {_mm256_sub_pd(e, _mm256_set1_pd(4503599627370496.0 + 1023.0))};
  }
};

/// 8 float lanes for the GEMM tile kernel.
struct VAvx2F {
  static constexpr int kWidth = 8;
  __m256 v;

  static VAvx2F load(const float* p) { return {_mm256_loadu_ps(p)}; }
  void store(float* p) const { _mm256_storeu_ps(p, v); }
  static VAvx2F broadcast(float x) { return {_mm256_set1_ps(x)}; }
  static VAvx2F zero() { return {_mm256_setzero_ps()}; }
  /// Lane j = base[idx[j]].
  static VAvx2F gather(const float* base, const int* idx) {
    return {_mm256_i32gather_ps(
        base, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)), 4)};
  }

  friend VAvx2F operator+(VAvx2F a, VAvx2F b) {
    return {_mm256_add_ps(a.v, b.v)};
  }

  /// a*b + c
  static VAvx2F fmadd(VAvx2F a, VAvx2F b, VAvx2F c) {
    return {_mm256_fmadd_ps(a.v, b.v, c.v)};
  }

  /// In-place 8 x 8 transpose: rows[i] lane j <-> rows[j] lane i.
  static void transpose(VAvx2F* rows) {
    __m256 t[8], s[8];
    for (int i = 0; i < 8; i += 2) {
      t[i] = _mm256_unpacklo_ps(rows[i].v, rows[i + 1].v);
      t[i + 1] = _mm256_unpackhi_ps(rows[i].v, rows[i + 1].v);
    }
    for (int i = 0; i < 8; i += 4)
      for (int h = 0; h < 2; ++h) {
        s[i + 2 * h] = _mm256_shuffle_ps(t[i + h], t[i + h + 2], 0x44);
        s[i + 2 * h + 1] = _mm256_shuffle_ps(t[i + h], t[i + h + 2], 0xee);
      }
    for (int i = 0; i < 4; ++i) {
      rows[i].v = _mm256_permute2f128_ps(s[i], s[i + 4], 0x20);
      rows[i + 4].v = _mm256_permute2f128_ps(s[i], s[i + 4], 0x31);
    }
  }
};

}  // namespace mmhand::simd

#endif  // __AVX2__ && __FMA__
