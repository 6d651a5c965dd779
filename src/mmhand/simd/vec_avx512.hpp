#pragma once

// AVX-512 backend: 8 double lanes for the radar front end's products.
// The float GEMM, pack and gather entries keep the 8-lane VAvx2F type
// (kernels_avx512.cpp), so only the double kernels widen.  The whole
// header is guarded on __AVX512F__ so it stays self-contained in
// translation units compiled without -mavx512f (the header-lint gate
// builds every header standalone with the base toolchain flags); only
// kernels_avx512.cpp, which gets per-file -mavx512f -mavx2 -mfma, sees
// the contents.

#if defined(__AVX512F__)

#include <immintrin.h>

#include <cstddef>

#include "mmhand/simd/vec_scalar.hpp"  // split_exponent bit constants

namespace mmhand::simd {

struct VAvx512 {
  static constexpr int kWidth = 8;
  __m512d v;

  static VAvx512 load(const double* p) { return {_mm512_loadu_pd(p)}; }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  static VAvx512 broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static VAvx512 zero() { return {_mm512_setzero_pd()}; }

  friend VAvx512 operator+(VAvx512 a, VAvx512 b) {
    return {_mm512_add_pd(a.v, b.v)};
  }
  friend VAvx512 operator-(VAvx512 a, VAvx512 b) {
    return {_mm512_sub_pd(a.v, b.v)};
  }
  friend VAvx512 operator*(VAvx512 a, VAvx512 b) {
    return {_mm512_mul_pd(a.v, b.v)};
  }
  friend VAvx512 operator/(VAvx512 a, VAvx512 b) {
    return {_mm512_div_pd(a.v, b.v)};
  }

  /// a*b + c
  static VAvx512 fmadd(VAvx512 a, VAvx512 b, VAvx512 c) {
    return {_mm512_fmadd_pd(a.v, b.v, c.v)};
  }
  /// c - a*b
  static VAvx512 fnmadd(VAvx512 a, VAvx512 b, VAvx512 c) {
    return {_mm512_fnmadd_pd(a.v, b.v, c.v)};
  }
  // sqrt and the shift go through their zero-masked forms with every
  // lane selected: the same instruction, but GCC 12's unmasked wrappers
  // trip -Wmaybe-uninitialized on their undefined pass-through operand.
  static constexpr __mmask8 kAll = 0xff;

  static VAvx512 sqrt(VAvx512 a) { return {_mm512_maskz_sqrt_pd(kAll, a.v)}; }

  /// VScalar::split_exponent per lane, on 64-bit integer lanes.  The
  /// biased exponent becomes a double through the 2^52 magic number, as
  /// in VAvx2 (the int64 -> double convert is AVX512DQ, not F).
  static VAvx512 split_exponent(VAvx512 x, VAvx512* m) {
    const __m512i ix = _mm512_add_epi64(
        _mm512_castpd_si512(x.v),
        _mm512_set1_epi64(static_cast<long long>(kSqrtHalfOffset)));
    m->v = _mm512_castsi512_pd(_mm512_add_epi64(
        _mm512_and_si512(
            ix, _mm512_set1_epi64(static_cast<long long>(kMantissaMask))),
        _mm512_set1_epi64(static_cast<long long>(kSqrtHalfBits))));
    const __m512d magic = _mm512_set1_pd(4503599627370496.0);  // 2^52
    const __m512d e = _mm512_castsi512_pd(
        _mm512_or_si512(_mm512_maskz_srli_epi64(kAll, ix, 52),
                        _mm512_castpd_si512(magic)));
    return {_mm512_sub_pd(e, _mm512_set1_pd(4503599627370496.0 + 1023.0))};
  }
};

}  // namespace mmhand::simd

#endif  // __AVX512F__
