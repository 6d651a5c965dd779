// Tests for mmhand/radar: config math, antenna geometry, IF synthesis and
// the full radar-cube pipeline's range/velocity/angle localization.

#include <gtest/gtest.h>

#include <cmath>

#include "mmhand/common/error.hpp"
#include "mmhand/common/rng.hpp"
#include "mmhand/radar/antenna_array.hpp"
#include "mmhand/radar/chirp_config.hpp"
#include "mmhand/dsp/fft.hpp"
#include "mmhand/radar/if_simulator.hpp"
#include "mmhand/radar/pipeline.hpp"

namespace mmhand::radar {
namespace {

ChirpConfig paper_chirp() {
  ChirpConfig c;  // defaults mirror the paper's IWR1443 setup
  c.noise_stddev = 0.0;
  return c;
}

struct CubePeak {
  int v = 0, d = 0, a = 0;
  float value = 0.0f;
};

CubePeak find_cube_peak(const RadarCube& cube, int angle_lo, int angle_hi) {
  CubePeak best;
  best.value = -1.0f;
  for (int v = 0; v < cube.velocity_bins(); ++v)
    for (int d = 0; d < cube.range_bins(); ++d)
      for (int a = angle_lo; a < angle_hi; ++a)
        if (cube.at(v, d, a) > best.value)
          best = {v, d, a, cube.at(v, d, a)};
  return best;
}

TEST(ChirpConfig, DerivedQuantitiesMatchPaperSetup) {
  const ChirpConfig c = paper_chirp();
  // 64 samples over 80 us -> 800 kHz ADC rate.
  EXPECT_NEAR(c.sample_rate_hz(), 800e3, 1e-6);
  // 4 GHz sweep -> 3.75 cm range resolution.
  EXPECT_NEAR(c.range_resolution_m(), 0.0375, 1e-4);
  // 77 GHz -> ~3.9 mm wavelength.
  EXPECT_NEAR(c.wavelength_m(), 3.893e-3, 1e-5);
  // Max range with complex sampling: fs/2 beat Nyquist -> 1.2 m.
  EXPECT_NEAR(c.max_range_m(), 1.199, 2e-2);
  // TDM with 3 TX: 240 us per-TX period -> ~4.06 m/s unambiguous velocity.
  EXPECT_NEAR(c.max_velocity_mps(), 4.055, 0.05);
}

TEST(ChirpConfig, BeatRangeRoundTrip) {
  const ChirpConfig c = paper_chirp();
  for (double r : {0.1, 0.25, 0.4, 0.8}) {
    EXPECT_NEAR(c.range_for_beat(c.beat_frequency_hz(r)), r, 1e-12);
  }
}

TEST(ChirpConfig, ValidateRejectsBadFramePeriod) {
  ChirpConfig c = paper_chirp();
  c.frame_period_s = 1e-6;
  EXPECT_THROW(c.validate(), Error);
}

TEST(AntennaArray, VirtualAzimuthRowIsUniformLambdaHalf) {
  const ChirpConfig c = paper_chirp();
  const AntennaArray arr(c);
  EXPECT_EQ(arr.num_virtual(), 12);
  const auto& row = arr.azimuth_row();
  ASSERT_EQ(row.size(), 8u);
  const double d = arr.azimuth_spacing_m();
  for (std::size_t i = 0; i + 1 < row.size(); ++i) {
    const Vec3 a = arr.virtual_position(row[i].first, row[i].second);
    const Vec3 b = arr.virtual_position(row[i + 1].first, row[i + 1].second);
    EXPECT_NEAR(b.x - a.x, d, 1e-12);
    EXPECT_NEAR(a.z, 0.0, 1e-12);
  }
}

TEST(AntennaArray, ElevationRowIsRaisedLambdaHalf) {
  const ChirpConfig c = paper_chirp();
  const AntennaArray arr(c);
  for (const auto& [tx, rx] : arr.elevation_row()) {
    EXPECT_NEAR(arr.virtual_position(tx, rx).z, arr.elevation_offset_m(),
                1e-12);
  }
}

TEST(AntennaArray, RejectsNonIwr1443Layout) {
  ChirpConfig c = paper_chirp();
  c.num_tx = 2;
  EXPECT_THROW(AntennaArray{c}, Error);
}

TEST(IfFrame, IndexingIsExact) {
  IfFrame f(2, 3, 4, 5);
  f.at(1, 2, 3, 4) = {7.0, -7.0};
  EXPECT_EQ(f.chirp_data(1, 2, 3)[4], (std::complex<double>{7.0, -7.0}));
  EXPECT_EQ(f.at(0, 0, 0, 0), (std::complex<double>{0.0, 0.0}));
}

TEST(IfSimulator, BeatFrequencyMatchesRange) {
  // A static scatterer's IF tone must land at the theoretical beat
  // frequency — this validates Eq.(1)'s implementation end to end.
  const ChirpConfig c = paper_chirp();
  const AntennaArray arr(c);
  const IfSimulator sim(c, arr);
  const double range = 0.30;
  Scene scene{{Vec3{0.0, range, 0.0}, Vec3{}, 1.0}};
  Rng rng(1);
  const IfFrame frame = sim.simulate_frame(scene, 0.0, rng);

  // FFT of one chirp: peak bin * bin_hz ~= beat frequency.
  std::vector<std::complex<double>> chirp(
      frame.chirp_data(0, 0, 0), frame.chirp_data(0, 0, 0) + c.samples_per_chirp);
  const auto spec = dsp::fft(chirp);
  std::size_t best = 0;
  for (std::size_t i = 1; i < spec.size() / 2; ++i)
    if (std::abs(spec[i]) > std::abs(spec[best])) best = i;
  const double bin_hz = c.sample_rate_hz() / c.samples_per_chirp;
  const double measured = static_cast<double>(best) * bin_hz;
  EXPECT_NEAR(measured, c.beat_frequency_hz(range), bin_hz);
}

class PipelineRangeTest : public ::testing::TestWithParam<double> {};

TEST_P(PipelineRangeTest, PeakAtExpectedRangeBin) {
  const ChirpConfig c = paper_chirp();
  const AntennaArray arr(c);
  const IfSimulator sim(c, arr);
  PipelineConfig pc;
  const RadarPipeline pipe(c, arr, pc);

  const double range = GetParam();
  Scene scene{{Vec3{0.0, range, 0.0}, Vec3{}, 1.0}};
  Rng rng(2);
  const auto cube = pipe.process_frame(sim.simulate_frame(scene, 0.0, rng));
  const auto peak = find_cube_peak(cube, 0, pc.cube.azimuth_bins);
  EXPECT_NEAR(pipe.range_for_bin(peak.d), range, 1.5 * c.range_resolution_m())
      << "peak bin " << peak.d;
  // Static target: Doppler peak at the zero-velocity bin.
  EXPECT_EQ(peak.v, c.chirps_per_frame / 2);
}

INSTANTIATE_TEST_SUITE_P(Ranges, PipelineRangeTest,
                         ::testing::Values(0.20, 0.30, 0.40, 0.60, 0.80));

class PipelineVelocityTest : public ::testing::TestWithParam<double> {};

TEST_P(PipelineVelocityTest, PeakAtExpectedDopplerBin) {
  const ChirpConfig c = paper_chirp();
  const AntennaArray arr(c);
  const IfSimulator sim(c, arr);
  PipelineConfig pc;
  const RadarPipeline pipe(c, arr, pc);

  const double vel = GetParam();  // radial velocity, +away from radar
  Scene scene{{Vec3{0.0, 0.30, 0.0}, Vec3{0.0, vel, 0.0}, 1.0}};
  Rng rng(3);
  const auto cube = pipe.process_frame(sim.simulate_frame(scene, 0.0, rng));
  const auto peak = find_cube_peak(cube, 0, pc.cube.azimuth_bins);
  EXPECT_NEAR(pipe.velocity_for_bin(peak.v), vel,
              1.5 * (2.0 * c.max_velocity_mps() / c.chirps_per_frame))
      << "doppler bin " << peak.v;
}

INSTANTIATE_TEST_SUITE_P(Velocities, PipelineVelocityTest,
                         ::testing::Values(-2.0, -0.8, 0.8, 2.0));

class PipelineAzimuthTest : public ::testing::TestWithParam<double> {};

TEST_P(PipelineAzimuthTest, PeakAtExpectedAzimuthBin) {
  const ChirpConfig c = paper_chirp();
  const AntennaArray arr(c);
  const IfSimulator sim(c, arr);
  PipelineConfig pc;
  const RadarPipeline pipe(c, arr, pc);

  const double az_deg = GetParam();
  const double az = az_deg * M_PI / 180.0;
  const double range = 0.30;
  Scene scene{
      {Vec3{range * std::sin(az), range * std::cos(az), 0.0}, Vec3{}, 1.0}};
  Rng rng(4);
  const auto cube = pipe.process_frame(sim.simulate_frame(scene, 0.0, rng));
  const auto peak = find_cube_peak(cube, 0, pc.cube.azimuth_bins);
  const double bin_width =
      2.0 * std::sin(pc.cube.angle_span_rad()) / pc.cube.azimuth_bins;
  EXPECT_NEAR(std::sin(pipe.azimuth_for_bin(peak.a)), std::sin(az),
              1.5 * bin_width)
      << "azimuth bin " << peak.a << " at " << az_deg << " deg";
}

INSTANTIATE_TEST_SUITE_P(Azimuths, PipelineAzimuthTest,
                         ::testing::Values(-25.0, -12.0, 0.0, 12.0, 25.0));

TEST(Pipeline, MovingOffAxisTargetStaysLocalizedUnderTdm) {
  // TDM phase compensation: a moving target must still localize at the
  // correct azimuth (an uncompensated pipeline smears it).
  const ChirpConfig c = paper_chirp();
  const AntennaArray arr(c);
  const IfSimulator sim(c, arr);
  PipelineConfig pc;
  const RadarPipeline pipe(c, arr, pc);

  const double az = 15.0 * M_PI / 180.0;
  Scene scene{{Vec3{0.30 * std::sin(az), 0.30 * std::cos(az), 0.0},
               Vec3{0.0, 1.2, 0.0}, 1.0}};
  Rng rng(5);
  const auto cube = pipe.process_frame(sim.simulate_frame(scene, 0.0, rng));
  const auto peak = find_cube_peak(cube, 0, pc.cube.azimuth_bins);
  const double bin_width =
      2.0 * std::sin(pc.cube.angle_span_rad()) / pc.cube.azimuth_bins;
  EXPECT_NEAR(std::sin(pipe.azimuth_for_bin(peak.a)), std::sin(az),
              2.0 * bin_width);
  EXPECT_NE(peak.v, c.chirps_per_frame / 2);  // moving: off the zero bin
}

TEST(Pipeline, ElevationSpectrumDistinguishesUpFromDown) {
  const ChirpConfig c = paper_chirp();
  const AntennaArray arr(c);
  const IfSimulator sim(c, arr);
  PipelineConfig pc;
  const RadarPipeline pipe(c, arr, pc);
  const int n_az = pc.cube.azimuth_bins;
  const int n_el = pc.cube.elevation_bins;

  auto elevation_peak_bin = [&](double el_deg) {
    const double el = el_deg * M_PI / 180.0;
    Scene scene{{Vec3{0.0, 0.30 * std::cos(el), 0.30 * std::sin(el)},
                 Vec3{}, 1.0}};
    Rng rng(6);
    const auto cube =
        pipe.process_frame(sim.simulate_frame(scene, 0.0, rng));
    // Strongest elevation bin at the peak range-Doppler cell.
    const auto peak = find_cube_peak(cube, 0, n_az);
    int best = 0;
    for (int e = 1; e < n_el; ++e)
      if (cube.at(peak.v, peak.d, n_az + e) >
          cube.at(peak.v, peak.d, n_az + best))
        best = e;
    return best;
  };

  const int up = elevation_peak_bin(20.0);
  const int level = elevation_peak_bin(0.0);
  const int down = elevation_peak_bin(-20.0);
  EXPECT_GT(up, level);
  EXPECT_LT(down, level);
  // Boresight lands near the center of the elevation spectrum.
  EXPECT_NEAR(level, n_el / 2, 1.5);
}

TEST(Pipeline, BandpassSuppressesBodyClutter) {
  // The hand (30 cm) and a strong body reflector (1.05 m, outside the
  // passband) — the Butterworth bandpass should suppress the body's range
  // response relative to an unfiltered pipeline.
  ChirpConfig c = paper_chirp();
  const AntennaArray arr(c);
  const IfSimulator sim(c, arr);

  PipelineConfig with_bp;
  with_bp.cube.range_bins = 32;  // keep bins past 1 m visible for the test
  PipelineConfig no_bp = with_bp;
  no_bp.enable_bandpass = false;
  const RadarPipeline pipe_bp(c, arr, with_bp);
  const RadarPipeline pipe_raw(c, arr, no_bp);

  Scene scene{{Vec3{0.0, 0.30, 0.0}, Vec3{}, 1.0},
              {Vec3{0.0, 1.05, 0.0}, Vec3{}, 8.0}};
  Rng rng(7);
  const IfFrame frame = sim.simulate_frame(scene, 0.0, rng);
  const auto cube_bp = pipe_bp.process_frame(frame);
  const auto cube_raw = pipe_raw.process_frame(frame);

  // Energy near the body's range bin (1.05 m / 3.75 cm = bin 28).
  auto energy_at_range = [&](const RadarCube& cube, int d) {
    double e = 0.0;
    for (int v = 0; v < cube.velocity_bins(); ++v)
      for (int a = 0; a < cube.angle_bins(); ++a)
        e += std::expm1(cube.at(v, d, a));  // undo log1p
    return e;
  };
  const double body_bp = energy_at_range(cube_bp, 28);
  const double body_raw = energy_at_range(cube_raw, 28);
  EXPECT_LT(body_bp, 0.15 * body_raw);
  // The hand's bin (8) survives filtering.
  const double hand_bp = energy_at_range(cube_bp, 8);
  const double hand_raw = energy_at_range(cube_raw, 8);
  EXPECT_GT(hand_bp, 0.4 * hand_raw);
}

TEST(Pipeline, StrongerScattererYieldsLargerPeak) {
  const ChirpConfig c = paper_chirp();
  const AntennaArray arr(c);
  const IfSimulator sim(c, arr);
  PipelineConfig pc;
  const RadarPipeline pipe(c, arr, pc);

  auto peak_for_amp = [&](double amp) {
    Scene scene{{Vec3{0.0, 0.30, 0.0}, Vec3{}, amp}};
    Rng rng(8);
    const auto cube =
        pipe.process_frame(sim.simulate_frame(scene, 0.0, rng));
    return find_cube_peak(cube, 0, pc.cube.azimuth_bins).value;
  };
  EXPECT_GT(peak_for_amp(2.0), peak_for_amp(0.5));
}

TEST(Pipeline, RangeAmplitudeFallsWithDistance) {
  // Two-way propagation loss: the same reflector looks weaker farther out.
  const ChirpConfig c = paper_chirp();
  const AntennaArray arr(c);
  const IfSimulator sim(c, arr);
  PipelineConfig pc;
  const RadarPipeline pipe(c, arr, pc);

  auto peak_at = [&](double range) {
    Scene scene{{Vec3{0.0, range, 0.0}, Vec3{}, 1.0}};
    Rng rng(9);
    const auto cube =
        pipe.process_frame(sim.simulate_frame(scene, 0.0, rng));
    return find_cube_peak(cube, 0, pc.cube.azimuth_bins).value;
  };
  EXPECT_GT(peak_at(0.25), peak_at(0.70));
}

TEST(Pipeline, ZoomFftSharpensAngleLocalization) {
  // Ablation hook: with zoom disabled the band covers +-90 deg at the same
  // bin count, so the hand's energy concentrates in fewer bins near
  // boresight and neighbouring-angle contrast drops.
  const ChirpConfig c = paper_chirp();
  const AntennaArray arr(c);
  const IfSimulator sim(c, arr);
  PipelineConfig zoom_on;
  PipelineConfig zoom_off = zoom_on;
  zoom_off.enable_zoom_fft = false;
  const RadarPipeline pipe_on(c, arr, zoom_on);
  const RadarPipeline pipe_off(c, arr, zoom_off);

  // Two scatterers 12 degrees apart.
  const double a1 = -6.0 * M_PI / 180.0, a2 = 6.0 * M_PI / 180.0;
  Scene scene{
      {Vec3{0.30 * std::sin(a1), 0.30 * std::cos(a1), 0.0}, Vec3{}, 1.0},
      {Vec3{0.30 * std::sin(a2), 0.30 * std::cos(a2), 0.0}, Vec3{}, 1.0}};
  Rng rng(10);
  const IfFrame frame = sim.simulate_frame(scene, 0.0, rng);
  const auto cube_on = pipe_on.process_frame(frame);
  const auto cube_off = pipe_off.process_frame(frame);

  // Count azimuth bins above half the peak in the strongest range row.
  auto active_bins = [&](const RadarCube& cube) {
    const auto peak = find_cube_peak(cube, 0, zoom_on.cube.azimuth_bins);
    int n = 0;
    for (int a = 0; a < zoom_on.cube.azimuth_bins; ++a)
      if (cube.at(peak.v, peak.d, a) > 0.5f * peak.value) ++n;
    return n;
  };
  // The zoomed grid spreads the two targets over more distinct bins.
  EXPECT_GE(active_bins(cube_on), active_bins(cube_off));
}

TEST(Pipeline, BinMappingsAreMonotone) {
  const ChirpConfig c = paper_chirp();
  const AntennaArray arr(c);
  PipelineConfig pc;
  const RadarPipeline pipe(c, arr, pc);
  for (int d = 1; d < pc.cube.range_bins; ++d)
    EXPECT_GT(pipe.range_for_bin(d), pipe.range_for_bin(d - 1));
  for (int a = 1; a < pc.cube.azimuth_bins; ++a)
    EXPECT_GT(pipe.azimuth_for_bin(a), pipe.azimuth_for_bin(a - 1));
  for (int v = 1; v < c.chirps_per_frame; ++v)
    EXPECT_GT(pipe.velocity_for_bin(v), pipe.velocity_for_bin(v - 1));
  EXPECT_NEAR(pipe.velocity_for_bin(c.chirps_per_frame / 2), 0.0, 1e-12);
}

TEST(Pipeline, RejectsTooManyRangeBins) {
  const ChirpConfig c = paper_chirp();
  const AntennaArray arr(c);
  PipelineConfig pc;
  pc.cube.range_bins = c.samples_per_chirp + 1;
  EXPECT_THROW(RadarPipeline(c, arr, pc), Error);
}

TEST(Pipeline, RejectsNonPowerOfTwoGeometry) {
  // The range and Doppler stages are radix-2 lane FFTs only.
  ChirpConfig c = paper_chirp();
  c.samples_per_chirp = 48;
  EXPECT_THROW(RadarPipeline(c, AntennaArray(c), PipelineConfig{}), Error);
  c = paper_chirp();
  c.chirps_per_frame = 12;
  EXPECT_THROW(RadarPipeline(c, AntennaArray(c), PipelineConfig{}), Error);
}

}  // namespace
}  // namespace mmhand::radar
