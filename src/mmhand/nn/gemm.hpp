#pragma once

// Shared SGEMM for the NN hot path.
//
// One packed-panel routine over the `simd::Kernels` float tile kernel
// backs Conv2d (im2col), ConvTranspose2d, Linear, and the LSTM/GRU gate
// projections, single-sample recurrent steps included.  All matrices are
// row-major and dense; the three entry points differ only in which
// operand strides it packs through.  Every call *accumulates*
// into C (callers pre-fill C with the bias or zeros).
//
// Numerical contract (DESIGN §9, §13): on every ISA each output element
// is C_in + (an FMA chain from 0 over k = 0..K-1 in ascending order).
// The value of an element does not depend on m, n, its tile position or
// `mmhand::num_threads()`, so a row of a batched product equals the
// single-row product bitwise.  The width-1 (scalar) table's FMA is an
// unfused multiply-add, so outputs differ across ISAs by ulps.

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

}  // namespace mmhand::nn
