// Tests for the SIMD layer: ISA dispatch, scalar-vs-vector parity of
// every vectorized DSP entry point (fft/ifft/fft_real/zoom_fft/
// filtfilt_batch/magnitude) over randomized sizes, and the bitwise
// golden pins of the radar pipeline on the scalar (width-1) and AVX2
// kernels (DESIGN §9).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mmhand/common/rng.hpp"
#include "mmhand/dsp/butterworth.hpp"
#include "mmhand/dsp/fft.hpp"
#include "mmhand/dsp/spectrum.hpp"
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

/// Best vector (non-scalar) ISA, or kScalar when the host has none.
Isa vector_isa() { return simd::best_supported_isa(); }

std::vector<Complex> random_signal(std::size_t n, Rng& rng) {
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex{rng.normal(), rng.normal()};
  return x;
}

/// Max elementwise |a-b| relative to the reference's L-inf norm.
double rel_error(const std::vector<Complex>& ref,
                 const std::vector<Complex>& got) {
  EXPECT_EQ(ref.size(), got.size());
  double scale = 0.0, err = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    scale = std::max(scale, std::abs(ref[i]));
    err = std::max(err, std::abs(ref[i] - got[i]));
  }
  return err / std::max(scale, 1e-300);
}

constexpr double kParityTol = 1e-9;

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
  for (const Isa isa : {Isa::kAvx2, Isa::kNeon}) {
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
  EXPECT_TRUE(simd::isa_supported(simd::best_supported_isa()));
}

TEST(SimdDispatch, IsaNamesAreStable) {
  EXPECT_STREQ(simd::isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(Isa::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(Isa::kNeon), "neon");
}

// --- scalar-vs-vector parity --------------------------------------------

TEST(ScalarSimdParity, FftAndInverseOverPowerOfTwoSizes) {
  if (vector_isa() == Isa::kScalar) GTEST_SKIP() << "no vector ISA";
  IsaGuard guard;
  Rng rng(101);
  for (const std::size_t n : {2u, 4u, 8u, 16u, 64u, 128u, 512u}) {
    const auto x = random_signal(n, rng);
    ASSERT_TRUE(simd::set_isa(Isa::kScalar));
    const auto ref_f = dsp::fft(x);
    const auto ref_i = dsp::ifft(x);
    ASSERT_TRUE(simd::set_isa(vector_isa()));
    EXPECT_LT(rel_error(ref_f, dsp::fft(x)), kParityTol) << "fft n=" << n;
    EXPECT_LT(rel_error(ref_i, dsp::ifft(x)), kParityTol) << "ifft n=" << n;
  }
}

TEST(ScalarSimdParity, RealInputFft) {
  if (vector_isa() == Isa::kScalar) GTEST_SKIP() << "no vector ISA";
  IsaGuard guard;
  Rng rng(102);
  // Power-of-two sizes hit the packed real-FFT specialization; 6 and 12
  // exercise the generic fallback under a vector ISA.
  for (const std::size_t n : {4u, 6u, 8u, 12u, 64u, 256u}) {
    std::vector<double> x(n);
    for (auto& v : x) v = rng.normal();
    ASSERT_TRUE(simd::set_isa(Isa::kScalar));
    const auto ref = dsp::fft_real(x);
    ASSERT_TRUE(simd::set_isa(vector_isa()));
    EXPECT_LT(rel_error(ref, dsp::fft_real(x)), kParityTol) << "n=" << n;
  }
}

TEST(ScalarSimdParity, ZoomFftNonPowerOfTwoBins) {
  if (vector_isa() == Isa::kScalar) GTEST_SKIP() << "no vector ISA";
  IsaGuard guard;
  Rng rng(103);
  const struct {
    std::size_t n, bins;
    double f_lo, f_hi;
  } cases[] = {
      {5, 7, -0.2, 0.2},   {16, 16, 0.05, 0.25}, {60, 24, -0.4, 0.4},
      {64, 33, 0.0, 0.5},  {64, 16, -0.083, 0.083},
  };
  for (const auto& c : cases) {
    const auto x = random_signal(c.n, rng);
    ASSERT_TRUE(simd::set_isa(Isa::kScalar));
    const auto ref = dsp::zoom_fft(x, c.f_lo, c.f_hi, c.bins);
    ASSERT_TRUE(simd::set_isa(vector_isa()));
    EXPECT_LT(rel_error(ref, dsp::zoom_fft(x, c.f_lo, c.f_hi, c.bins)),
              kParityTol)
        << "n=" << c.n << " bins=" << c.bins;
  }
}

TEST(ScalarSimdParity, FiltfiltBatchOddChannelCounts) {
  if (vector_isa() == Isa::kScalar) GTEST_SKIP() << "no vector ISA";
  IsaGuard guard;
  const auto filt = dsp::butterworth_bandpass(4, 0.05, 0.35, 1.0);
  Rng rng(104);
  // Odd counts leave partially-filled lane blocks; len 9 forces the
  // pad < 3*(2*nsec+1) clamp.
  for (const std::size_t count : {1u, 3u, 5u, 12u}) {
    for (const std::size_t len : {9u, 64u}) {
      const auto orig = random_signal(len * count, rng);
      auto scalar_out = orig;
      ASSERT_TRUE(simd::set_isa(Isa::kScalar));
      filt.filtfilt_batch(scalar_out.data(), len, count);
      auto simd_out = orig;
      ASSERT_TRUE(simd::set_isa(vector_isa()));
      filt.filtfilt_batch(simd_out.data(), len, count);
      EXPECT_LT(rel_error(scalar_out, simd_out), kParityTol)
          << "count=" << count << " len=" << len;
    }
  }
}

TEST(ScalarSimdParity, FiltfiltBatchScalarMatchesPerSignalFiltfilt) {
  // Width-1 lanes must reproduce the per-signal reference loop: bitwise.
  IsaGuard guard;
  ASSERT_TRUE(simd::set_isa(Isa::kScalar));
  const auto filt = dsp::butterworth_bandpass(4, 0.05, 0.35, 1.0);
  Rng rng(105);
  const std::size_t len = 64, count = 12;
  const auto orig = random_signal(len * count, rng);
  auto batch = orig;
  filt.filtfilt_batch(batch.data(), len, count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto ref = filt.filtfilt(
        std::span<const Complex>(orig.data() + i * len, len));
    for (std::size_t t = 0; t < len; ++t) {
      EXPECT_EQ(ref[t].real(), batch[i * len + t].real());
      EXPECT_EQ(ref[t].imag(), batch[i * len + t].imag());
    }
  }
}

TEST(ScalarSimdParity, MagnitudeMatchesStdAbs) {
  if (vector_isa() == Isa::kScalar) GTEST_SKIP() << "no vector ISA";
  IsaGuard guard;
  Rng rng(106);
  const auto x = random_signal(37, rng);  // odd: exercises the tail loop
  ASSERT_TRUE(simd::set_isa(vector_isa()));
  const auto mags = dsp::magnitude(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(mags[i], std::abs(x[i]), 1e-12 + 1e-9 * std::abs(x[i]));
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

TEST(ScalarGolden, PipelineCubeIsBitwiseIdenticalToPreSimd) {
  // Hash captured from the pre-SIMD implementation on this exact scene
  // (commit before the simd/ layer landed).  MMHAND_SIMD=scalar promises
  // bitwise identity with that build — any drift here is a contract
  // violation, not a tolerance issue.
  IsaGuard guard;
  ASSERT_TRUE(simd::set_isa(Isa::kScalar));
  EXPECT_EQ(golden_scene_cube_hash(), 0x110a873cc75a1e10ull);
}

TEST(VectorGolden, PipelineCubeHashUnchanged) {
  // Same scene on the AVX2 kernels.  The scalar golden cannot see a
  // change to the shared lane code that only alters wider lanes (lane
  // grouping, tail handling, FMA order); this pin does.
  if (!simd::isa_supported(Isa::kAvx2)) GTEST_SKIP() << "no AVX2";
  IsaGuard guard;
  ASSERT_TRUE(simd::set_isa(Isa::kAvx2));
  EXPECT_EQ(golden_scene_cube_hash(), 0x11cae44857bcd544ull);
}

TEST(VectorPipeline, CubeMatchesScalarWithinTolerance) {
  if (vector_isa() == Isa::kScalar) GTEST_SKIP() << "no vector ISA";
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
  ASSERT_TRUE(simd::set_isa(vector_isa()));
  const auto got = pipe.process_frame(frame);
  ASSERT_EQ(ref.data().size(), got.data().size());
  float scale = 0.0f;
  for (const float v : ref.data()) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < ref.data().size(); ++i)
    EXPECT_NEAR(ref.data()[i], got.data()[i], 1e-6f * scale) << "cell " << i;
}

}  // namespace
}  // namespace mmhand
