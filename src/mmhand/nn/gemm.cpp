#include "mmhand/nn/gemm.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mmhand/obs/metrics.hpp"
#include "mmhand/obs/trace.hpp"
#include "mmhand/simd/simd.hpp"

namespace mmhand::nn {

namespace {

/// Call/FLOP/byte accounting for every GEMM product.  Disabled cost:
/// one relaxed atomic load; enabled cost: three sharded relaxed adds.
/// Bytes are the compulsory-traffic estimate (read A and B once, read+
/// write C once, 4-byte floats) that `mmhand_report --roofline` divides
/// flops by for arithmetic intensity; cache reuse makes real DRAM
/// traffic lower, so the estimate is an upper bound on bytes moved.
inline void note_gemm(std::int64_t m, std::int64_t k, std::int64_t n) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& calls = obs::counter("nn/gemm.calls");
  static obs::Counter& flops = obs::counter("nn/gemm.flops");
  static obs::Counter& bytes = obs::counter("nn/gemm.bytes");
  calls.add(1);
  flops.add(2 * m * k * n);
  bytes.add(4 * (m * k + k * n + 2 * m * n));
}

obs::SpanSite& gemm_span_site() {
  static obs::SpanSite site("nn/gemm");
  return site;
}

/// Strided operand view: element (r, c) lives at p[r*rs + c*cs], so one
/// packing loop reads a row-major matrix and a transposed one alike.
struct View {
  const float* p;
  std::size_t rs, cs;
};

/// Per-thread packing buffers, grown on demand: slot 0 holds the A panels
/// this thread packed last, slot 1 the B panel it is running.
/// Steady-state inference allocates nothing here (audited in
/// scripts/purity_allowlist.json).
float* pack_scratch(int slot, std::size_t floats) {
  thread_local std::vector<float> buf[2];
  std::vector<float>& v = buf[slot];
  if (v.size() < floats) v.resize(floats);
  return v.data();
}

/// Packs `width` lines of a k-deep panel: dst[p*width + j] = line j at
/// depth p, read from src[j*line + p*depth], zero past line `valid`.
/// Depth is walked in L1-sized blocks so the strided stores stay cached.
void pack_panel(const float* src, std::size_t line, std::size_t depth,
                int valid, int width, int k, float* dst) {
  constexpr int kDepthBlock = 128;
  for (int p0 = 0; p0 < k; p0 += kDepthBlock) {
    const int p1 = std::min(k, p0 + kDepthBlock);
    for (int j = 0; j < width; ++j) {
      float* d = dst + j;
      if (j >= valid) {
        for (int p = p0; p < p1; ++p) d[p * width] = 0.0f;
        continue;
      }
      const float* s = src + j * line;
      for (int p = p0; p < p1; ++p) d[p * width] = s[p * depth];
    }
  }
}

/// Where a product's B panels come from: the strided view, or, when
/// `row_off` is set, the gather B(p, j) = view.p[row_off[p] + col_off[j]].
struct BSource {
  View view;
  const int* row_off = nullptr;
  const int* col_off = nullptr;
};

/// C[m x n] += A * B for a packed A, one gemm_nr-column panel of C at a
/// time.  Each panel reads B in place when its rows are contiguous and the
/// panel is full, else packs it zero-padded — through the kernel table's
/// gathering pack, its transposing pack when B's columns are k-contiguous
/// (the A*B^T layout), or the strided pack.  The kernel gives every
/// element the same ascending-k FMA chain wherever its tile sits, so
/// results do not depend on m or n.
void run_panels(const PackedA& a, BSource b, float* c, std::size_t ldc,
                int n) {
  const simd::Kernels* kern = a.kern;
  const int m = a.m, k = a.k, nr = kern->gemm_nr;
  const float* ap = a.panels;
  const View v = b.view;
  for (int j0 = 0; j0 < n; j0 += nr) {
    const int cols = std::min(nr, n - j0);
    if (b.row_off == nullptr && v.cs == 1 && cols == nr) {
      kern->gemm_panel(ap, v.p + j0, v.rs, c + j0, ldc, m, cols, k);
      continue;
    }
    float* bp = pack_scratch(1, static_cast<std::size_t>(k) * nr);
    if (b.row_off != nullptr)
      kern->gemm_pack_gather(v.p, b.row_off, b.col_off + j0, cols, k, bp);
    else if (v.rs == 1)
      kern->gemm_pack_lines(v.p + j0 * v.cs, v.cs, cols, k, bp);
    else
      pack_panel(v.p + j0 * v.cs, v.cs, v.rs, cols, nr, k, bp);
    kern->gemm_panel(ap, bp, nr, c + j0, ldc, m, cols, k);
  }
}

void gemm_strided(View a, View b, float* c, int m, int k, int n) {
  const GemmScope scope(m, k, n);
  run_panels(gemm_pack_a(a.p, a.rs, a.cs, m, k), {b}, c,
             static_cast<std::size_t>(n), n);
}

}  // namespace

void gemm_acc(const float* a, const float* b, float* c, int m, int k,
              int n) {
  gemm_strided({a, static_cast<std::size_t>(k), 1},
               {b, static_cast<std::size_t>(n), 1}, c, m, k, n);
}

void gemm_at_b_acc(const float* a, const float* b, float* c, int m, int k,
                   int n) {
  gemm_strided({a, 1, static_cast<std::size_t>(m)},
               {b, static_cast<std::size_t>(n), 1}, c, m, k, n);
}

void gemm_a_bt_acc(const float* a, const float* b, float* c, int m, int k,
                   int n) {
  gemm_strided({a, static_cast<std::size_t>(k), 1},
               {b, 1, static_cast<std::size_t>(k)}, c, m, k, n);
}

PackedA gemm_pack_a(const float* a, std::size_t rs, std::size_t cs, int m,
                    int k) {
  const simd::Kernels* kern = &simd::kernels();
  const int mr = kern->gemm_mr;
  const int padded_m = (m + mr - 1) / mr * mr;
  float* ap = pack_scratch(0, static_cast<std::size_t>(padded_m) * k);
  for (int i0 = 0; i0 < padded_m; i0 += mr)
    pack_panel(a + i0 * rs, rs, cs, m - i0, mr, k,
               ap + static_cast<std::size_t>(i0) * k);
  return {ap, kern, m, k};
}

void gemm_packed_acc(const PackedA& a, const float* b, std::size_t ldb,
                     float* c, std::size_t ldc, int n) {
  run_panels(a, {{b, ldb, 1}}, c, ldc, n);
}

void gemm_gather_acc(const PackedA& a, const float* src, const int* row_off,
                     const int* col_off, float* c, std::size_t ldc, int n) {
  run_panels(a, {{src, 0, 0}, row_off, col_off}, c, ldc, n);
}

GemmScope::GemmScope(int m, int k, int n) : span_(gemm_span_site()) {
  note_gemm(m, k, n);
}

}  // namespace mmhand::nn
