// Tests for the SIMD layer: ISA dispatch, per-ISA oracles for the radar
// front end's two kernels (the split-complex product and the fused log1p
// magnitude), and the bitwise golden pins of the radar pipeline on the
// scalar (width-1), AVX2 and AVX-512 kernels (DESIGN §9).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mmhand/common/rng.hpp"
#include "mmhand/dsp/fft.hpp"
#include "mmhand/radar/antenna_array.hpp"
#include "mmhand/radar/chirp_config.hpp"
#include "mmhand/radar/if_simulator.hpp"
#include "mmhand/radar/pipeline.hpp"
#include "mmhand/simd/simd.hpp"

namespace mmhand {
namespace {

using dsp::Complex;
using simd::Isa;

/// Restores the active ISA on scope exit so test order cannot leak a
/// forced ISA into later suites.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::active_isa()) {}
  ~IsaGuard() { simd::set_isa(saved_); }

 private:
  Isa saved_;
};

// --- dispatch -----------------------------------------------------------

TEST(SimdDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(simd::isa_supported(Isa::kScalar));
  EXPECT_NE(simd::kernels_for(Isa::kScalar), nullptr);
  EXPECT_EQ(simd::kernels_for(Isa::kScalar)->width, 1);
}

TEST(SimdDispatch, SetIsaRoundTripsAndRejectsUnsupported) {
  IsaGuard guard;
  ASSERT_TRUE(simd::set_isa(Isa::kScalar));
  EXPECT_EQ(simd::active_isa(), Isa::kScalar);
  EXPECT_EQ(simd::kernels().width, 1);
  for (const Isa isa : simd::kAllIsas) {
    if (isa == Isa::kScalar) continue;
    if (simd::isa_supported(isa)) {
      EXPECT_TRUE(simd::set_isa(isa));
      EXPECT_EQ(simd::active_isa(), isa);
      EXPECT_GT(simd::kernels().width, 1);
    } else {
      EXPECT_FALSE(simd::set_isa(isa));
      EXPECT_NE(simd::active_isa(), isa);
    }
  }
}

TEST(SimdDispatch, BestSupportedIsSupported) {
  const Isa best = simd::best_supported_isa();
  EXPECT_TRUE(simd::isa_supported(best));
  for (const Isa isa : simd::kAllIsas) {
    if (!simd::isa_supported(isa)) continue;
    EXPECT_LE(simd::kernels_for(isa)->width, simd::kernels_for(best)->width)
        << simd::isa_name(isa);
  }
}

TEST(SimdDispatch, IsaNamesAreStable) {
  EXPECT_STREQ(simd::isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(Isa::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(Isa::kNeon), "neon");
  EXPECT_STREQ(simd::isa_name(Isa::kAvx512), "avx512");
}

// --- radar front-end kernels, per ISA ----------------------------------

/// Every kernel table this host can run, widest first.
std::vector<const simd::Kernels*> all_tables() {
  std::vector<const simd::Kernels*> tables;
  for (const Isa isa : simd::kAllIsas)
    if (const simd::Kernels* k = simd::kernels_for(isa)) tables.push_back(k);
  return tables;
}

/// A random m x k complex matrix stored twice: split row-major, and as
/// interleaved std::complex column-major (the transposed, stride-2 view
/// the radar stages feed the product).
struct Operand {
  int m, k;
  std::vector<double> re, im;
  std::vector<Complex> cols;

  Operand(int rows, int depth, Rng& rng)
      : m(rows), k(depth), re(static_cast<std::size_t>(rows) * depth),
        im(re.size()), cols(re.size()) {
    for (int i = 0; i < m; ++i)
      for (int p = 0; p < k; ++p) {
        const std::size_t at = static_cast<std::size_t>(i) * k + p;
        re[at] = rng.uniform(-1.0, 1.0);
        im[at] = rng.uniform(-1.0, 1.0);
        cols[static_cast<std::size_t>(p) * m + i] = Complex{re[at], im[at]};
      }
  }
};

/// C = A·B through `k`'s product, with C pre-filled with garbage so a
/// missed store shows.  `transposed` reads A through its interleaved
/// column-major copy.
std::vector<Complex> run_product(const simd::Kernels& kt, const Operand& a,
                                 const Operand& b, bool transposed) {
  const std::size_t m = static_cast<std::size_t>(a.m);
  const std::size_t n = static_cast<std::size_t>(b.k);
  std::vector<double> c_re(m * n, 7.0), c_im(m * n, -7.0);
  const double* cols = reinterpret_cast<const double*>(a.cols.data());
  simd::ComplexProduct op{};
  op.a_re = transposed ? cols : a.re.data();
  op.a_im = transposed ? cols + 1 : a.im.data();
  op.a_row = transposed ? 2 : static_cast<std::size_t>(a.k);
  op.a_col = transposed ? 2 * m : 1;
  op.b_re = b.re.data();
  op.b_im = b.im.data();
  op.ldb = n;
  op.c_re = c_re.data();
  op.c_im = c_im.data();
  op.ldc = n;
  op.m = a.m;
  op.n = b.k;
  op.k = a.k;
  kt.cgemm(op);
  std::vector<Complex> c(m * n);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = Complex{c_re[i], c_im[i]};
  return c;
}

bool same_bits(const std::vector<Complex>& x, const std::vector<Complex>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(Complex)) == 0;
}

TEST(ComplexProductPerIsa, MatchesDoubleOracleOnEdgeShapes) {
  Rng rng(111);
  for (const simd::Kernels* kt : all_tables())
    for (const int m : {1, 5, 24})
      for (const int n : {1, 3, 7, 8, 9, 15, 16, 17, 24, 25})
        for (const int k : {0, 1, 12, 64}) {
          const Operand a(m, k, rng);
          const Operand b(k, n, rng);  // B is k x n: b.m = k, b.k = n
          const auto got = run_product(*kt, a, b, false);
          double err = 0.0;
          for (int i = 0; i < m; ++i)
            for (int j = 0; j < n; ++j) {
              Complex ref{};
              for (int p = 0; p < k; ++p)
                ref += Complex{a.re[i * k + p], a.im[i * k + p]} *
                       Complex{b.re[p * n + j], b.im[p * n + j]};
              err = std::max(err, std::abs(got[i * n + j] - ref));
            }
          EXPECT_LE(err, 1e-13 * std::max(k, 1))
              << "width " << kt->width << " m=" << m << " n=" << n
              << " k=" << k;
          // The strided, interleaved view of A must round identically.
          EXPECT_TRUE(same_bits(got, run_product(*kt, a, b, true)))
              << "width " << kt->width << " m=" << m << " n=" << n
              << " k=" << k;
        }
}

TEST(ComplexProductPerIsa, RowsAndColumnsAreBitwiseIndependentOfExtents) {
  // Each output is one fmadd chain over ascending p, so computing a row
  // or a column on its own must not move a bit, whatever lane or tile it
  // occupied in the full product.
  constexpr int m = 24, n = 25, k = 64;
  Rng rng(112);
  const Operand a(m, k, rng);
  const Operand b(k, n, rng);
  for (const simd::Kernels* kt : all_tables()) {
    const auto full = run_product(*kt, a, b, false);
    for (int i = 0; i < m; ++i) {
      Operand row = a;
      row.m = 1;
      row.re.assign(a.re.begin() + i * k, a.re.begin() + (i + 1) * k);
      row.im.assign(a.im.begin() + i * k, a.im.begin() + (i + 1) * k);
      const std::vector<Complex> want(full.begin() + i * n,
                                      full.begin() + (i + 1) * n);
      EXPECT_TRUE(same_bits(run_product(*kt, row, b, false), want))
          << "width " << kt->width << " row " << i;
    }
    for (int j = 0; j < n; ++j) {
      Operand col = b;
      col.k = 1;
      col.re.resize(k);
      col.im.resize(k);
      for (int p = 0; p < k; ++p) {
        col.re[p] = b.re[p * n + j];
        col.im[p] = b.im[p * n + j];
      }
      std::vector<Complex> want(m);
      for (int i = 0; i < m; ++i) want[i] = full[i * n + j];
      EXPECT_TRUE(same_bits(run_product(*kt, a, col, false), want))
          << "width " << kt->width << " column " << j;
    }
  }
}

/// Distance in float ulps between two finite floats of the same sign.
std::int64_t ulp_distance(float x, float y) {
  std::int32_t bx, by;
  std::memcpy(&bx, &x, sizeof(bx));
  std::memcpy(&by, &y, sizeof(by));
  return std::abs(static_cast<std::int64_t>(bx) - by);
}

TEST(Log1pAbsPerIsa, WithinOneFloatUlpOfStdLog1pHypot) {
  std::vector<double> re = {0.0, 4.9e-324, 1e-310, 1e-200, 1e-160, 0.0},
                      im = {0.0, 0.0, 1e-310, 3e-200, 0.0, 2.2e-308};
  Rng rng(113);
  // Magnitudes log-spaced over 1e-12 .. 1e6 at random phases; 4001
  // values leave a partial vector at the end.
  for (int i = 0; i <= 4000; ++i) {
    const double mag = std::pow(10.0, -12.0 + 18.0 * i / 4000.0);
    const double phase = rng.uniform(-3.14159, 3.14159);
    re.push_back(mag * std::cos(phase));
    im.push_back(mag * std::sin(phase));
  }
  for (const simd::Kernels* kt : all_tables()) {
    std::vector<float> out(re.size(), -1.0f);
    kt->log1p_abs(re.data(), im.data(), out.data(), re.size());
    std::int64_t worst = 0;
    for (std::size_t j = 0; j < re.size(); ++j) {
      const float want =
          static_cast<float>(std::log1p(std::hypot(re[j], im[j])));
      ASSERT_TRUE(std::isfinite(out[j])) << "width " << kt->width << " " << j;
      worst = std::max(worst, ulp_distance(out[j], want));
      EXPECT_LE(ulp_distance(out[j], want), 1)
          << "width " << kt->width << " |z| = " << std::hypot(re[j], im[j]);
    }
    EXPECT_LE(worst, 1);
    // Non-finite input propagates as NaN instead of a finite guess.
    const double bad_re[] = {std::nan(""), HUGE_VAL};
    const double bad_im[] = {0.0, 0.0};
    float bad_out[2];
    kt->log1p_abs(bad_re, bad_im, bad_out, 2);
    EXPECT_TRUE(std::isnan(bad_out[0])) << "width " << kt->width;
    EXPECT_TRUE(std::isnan(bad_out[1])) << "width " << kt->width;
  }
}

// --- forced-scalar pipeline golden --------------------------------------

/// FNV-1a over the float bit patterns of the radar cube.
std::uint64_t cube_hash(const std::vector<float>& data) {
  std::uint64_t h = 1469598103934665603ull;
  for (const float v : data) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Radar cube hash of the two-target golden scene under the active ISA.
std::uint64_t golden_scene_cube_hash() {
  radar::ChirpConfig chirp;
  chirp.noise_stddev = 0.0;
  const radar::AntennaArray array(chirp);
  const radar::IfSimulator sim(chirp, array);
  const radar::RadarPipeline pipe(chirp, array, radar::PipelineConfig{});
  radar::Scene scene{
      {Vec3{0.05, 0.30, 0.02}, Vec3{0.0, 0.4, 0.0}, 1.0},
      {Vec3{-0.08, 0.45, -0.01}, Vec3{0.0, -0.2, 0.0}, 0.7},
  };
  Rng rng(11);
  const auto frame = sim.simulate_frame(scene, 0.0, rng);
  const auto cube = pipe.process_frame(frame);
  EXPECT_EQ(cube.data().size(), 9216u);
  return cube_hash(cube.data());
}

// The two goldens pin this implementation's cube bits — the three
// precomputed maps behind the split-complex product and the fused log1p
// magnitude — so any drift is a change to radar arithmetic, not noise.
// They do not say the values are right; RadarPipeline.
// CubeMatchesPerSignalReference (test_radar) checks them against the
// per-signal §III chain on every ISA, and is what justifies re-pinning.
TEST(ScalarGolden, PipelineCubeHashUnchanged) {
  IsaGuard guard;
  ASSERT_TRUE(simd::set_isa(Isa::kScalar));
  EXPECT_EQ(golden_scene_cube_hash(), 0x79e42d298f0446cbull);
}

TEST(VectorGolden, PipelineCubeHashUnchanged) {
  // Same scene on the AVX2 kernels.  The scalar golden cannot see a
  // change to the shared kernel bodies that only alters wider lanes
  // (tile shape, tail handling, FMA order); this pin does.  The maps
  // are the width-1 ones on every ISA, so only the per-frame product
  // and log1p_abs run on AVX2 here.
  if (!simd::isa_supported(Isa::kAvx2)) GTEST_SKIP() << "no AVX2";
  IsaGuard guard;
  ASSERT_TRUE(simd::set_isa(Isa::kAvx2));
  EXPECT_EQ(golden_scene_cube_hash(), 0xbe4c99907e88d96eull);
}

TEST(VectorGolden, Avx512PipelineCubeHashIsTheAvx2One) {
  // The 8-lane product and log1p_abs do the AVX2 table's per-lane
  // operations in the same order, so the cube keeps the AVX2 bits.
  if (!simd::isa_supported(Isa::kAvx512)) GTEST_SKIP() << "no AVX-512";
  IsaGuard guard;
  ASSERT_TRUE(simd::set_isa(Isa::kAvx512));
  EXPECT_EQ(golden_scene_cube_hash(), 0xbe4c99907e88d96eull);
}

TEST(VectorPipeline, CubeMatchesScalarWithinTolerance) {
  IsaGuard guard;
  radar::ChirpConfig chirp;
  chirp.noise_stddev = 0.0;
  const radar::AntennaArray array(chirp);
  const radar::IfSimulator sim(chirp, array);
  const radar::RadarPipeline pipe(chirp, array, radar::PipelineConfig{});
  radar::Scene scene{
      {Vec3{0.05, 0.30, 0.02}, Vec3{0.0, 0.4, 0.0}, 1.0},
      {Vec3{-0.08, 0.45, -0.01}, Vec3{0.0, -0.2, 0.0}, 0.7},
  };
  Rng rng(11);
  const auto frame = sim.simulate_frame(scene, 0.0, rng);
  ASSERT_TRUE(simd::set_isa(Isa::kScalar));
  const auto ref = pipe.process_frame(frame);
  float scale = 0.0f;
  for (const float v : ref.data()) scale = std::max(scale, std::abs(v));
  int tables = 0;
  for (const Isa isa : simd::kAllIsas) {
    if (isa == Isa::kScalar || !simd::set_isa(isa)) continue;
    ++tables;
    const auto got = pipe.process_frame(frame);
    ASSERT_EQ(ref.data().size(), got.data().size());
    for (std::size_t i = 0; i < ref.data().size(); ++i)
      EXPECT_NEAR(ref.data()[i], got.data()[i], 1e-6f * scale)
          << simd::isa_name(isa) << " cell " << i;
  }
  if (tables == 0) GTEST_SKIP() << "no vector ISA";
}

}  // namespace
}  // namespace mmhand
