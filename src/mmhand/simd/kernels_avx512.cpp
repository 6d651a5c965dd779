// Compiled with per-file -mavx512f -mavx2 -mfma on x86-64 (see
// src/CMakeLists.txt); dispatch.cpp only hands out this table after
// CPUID confirms support, so the rest of the binary stays runnable on
// baseline hardware.  The double kernels run at 8 lanes; the float GEMM,
// pack and gather entries are the AVX2 ones (VAvx2F), so NN bits and
// panel shapes match the AVX2 table.

#include "mmhand/simd/kernels.hpp"
#include "mmhand/simd/vec_avx2.hpp"
#include "mmhand/simd/vec_avx512.hpp"

#if defined(__AVX512F__) && defined(__AVX2__) && defined(__FMA__)

#define MMHAND_SIMD_VEC VAvx512
#define MMHAND_SIMD_FVEC VAvx2F
#include "mmhand/simd/kernels_body.inl"
#undef MMHAND_SIMD_FVEC
#undef MMHAND_SIMD_VEC

namespace mmhand::simd {

const Kernels* avx512_kernels() { return &kTable; }

}  // namespace mmhand::simd

#else

namespace mmhand::simd {

const Kernels* avx512_kernels() { return nullptr; }

}  // namespace mmhand::simd

#endif
