#pragma once

// Shared SGEMM for the NN hot path.
//
// One packed-panel routine over the `simd::Kernels` float tile kernel
// backs Conv2d (B gathered from the input's taps), ConvTranspose2d (one
// output channel's columns at a time), Linear, the LSTM/GRU gate
// projections (single-sample recurrent steps included) and the conv
// backward passes.  All matrices are row-major and dense; the three
// one-shot entry points differ only in which operand strides they pack
// through.  Every call *accumulates* into C (callers pre-fill C with the
// bias or zeros).
//
// The routine has two halves: pack A into gemm_mr-row panels, then run
// gemm_nr-column panels of B against it.  The packed entry points expose
// that seam, so one packed A serves several products and a B panel can be
// gathered through offsets instead of read from a dense matrix.
//
// Numerical contract (DESIGN §9, §13): on every ISA each output element
// is C_in + (an FMA chain from 0 over k = 0..K-1 in ascending order).
// The value of an element does not depend on m, n, its tile position or
// how its B column was packed, so a row of a batched product equals the
// single-row product bitwise.  The width-1 (scalar) table's FMA is an
// unfused multiply-add, so outputs differ across ISAs by ulps.

#include <cstddef>

#include "mmhand/obs/trace.hpp"

namespace mmhand::simd {
struct Kernels;
}

namespace mmhand::nn {

/// C[m x n] += A[m x k] * B[k x n].
void gemm_acc(const float* a, const float* b, float* c, int m, int k, int n);

/// C[m x n] += A^T * B, with A stored row-major as [k x m].  This is the
/// transposed variant used by the backward passes (dX = W^T * dY).
void gemm_at_b_acc(const float* a, const float* b, float* c, int m, int k,
                   int n);

/// C[m x n] += A * B^T, with B stored row-major as [n x k].  Used where the
/// right operand is naturally row-major per output column (y = x W^T, and
/// dW = dY * cols^T).
void gemm_a_bt_acc(const float* a, const float* b, float* c, int m, int k,
                   int n);

/// A[m x k] packed for the active kernel table.  The panels live in the
/// packing thread's scratch and stay valid until that thread packs A
/// again; other threads may read them meanwhile.
struct PackedA {
  const float* panels;
  const simd::Kernels* kern;
  int m, k;
};

/// Packs A, element (i, p) at a[i*rs + p*cs].
PackedA gemm_pack_a(const float* a, std::size_t rs, std::size_t cs, int m,
                    int k);

/// C[m x n] += A * B with B(p, j) at b[p*ldb + j] and C(i, j) at
/// c[i*ldc + j].
void gemm_packed_acc(const PackedA& a, const float* b, std::size_t ldb,
                     float* c, std::size_t ldc, int n);

/// C[m x n] += A * B with B gathered: B(p, j) = src[row_off[p] +
/// col_off[j]].  An implicit-GEMM convolution passes per-tap row offsets
/// and per-pixel column offsets into its input.
void gemm_gather_acc(const PackedA& a, const float* src, const int* row_off,
                     const int* col_off, float* c, std::size_t ldc, int n);

/// Accounts one logical [m x k] * [k x n] product: notes it once in the
/// nn/gemm call/flop/byte counters and times its lifetime as one
/// "nn/gemm" span, however many packed calls run inside it.  The
/// one-shot entry points open their own.
class GemmScope {
 public:
  GemmScope(int m, int k, int n);

 private:
  obs::Span span_;
};

}  // namespace mmhand::nn
