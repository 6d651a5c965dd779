// Tests for mmhand/radar: config math, antenna geometry, IF synthesis and
// the full radar-cube pipeline's range/velocity/angle localization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "mmhand/common/error.hpp"
#include "mmhand/common/rng.hpp"
#include "mmhand/dsp/butterworth.hpp"
#include "mmhand/dsp/fft.hpp"
#include "mmhand/dsp/window.hpp"
#include "mmhand/radar/antenna_array.hpp"
#include "mmhand/radar/chirp_config.hpp"
#include "mmhand/radar/if_simulator.hpp"
#include "mmhand/radar/pipeline.hpp"
#include "mmhand/simd/simd.hpp"

namespace mmhand::radar {
namespace {

using simd::Isa;

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

TEST(Pipeline, RejectsFrameOfOtherGeometry) {
  // The maps are sized from the chirp config, so a frame of any other
  // shape must be refused rather than read out of bounds.
  const ChirpConfig c = paper_chirp();
  const RadarPipeline pipe(c, AntennaArray(c), PipelineConfig{});
  EXPECT_THROW(pipe.process_frame(IfFrame(c.num_tx, c.num_rx,
                                          c.chirps_per_frame,
                                          c.samples_per_chirp / 2)),
               Error);
  EXPECT_THROW(pipe.process_frame(IfFrame(c.num_tx, c.num_rx,
                                          2 * c.chirps_per_frame,
                                          c.samples_per_chirp)),
               Error);
  EXPECT_NO_THROW(pipe.process_frame(IfFrame(
      c.num_tx, c.num_rx, c.chirps_per_frame, c.samples_per_chirp)));
}

TEST(Pipeline, RejectsNonPowerOfTwoGeometry) {
  // The maps are built from radix-2 FFTs only.
  ChirpConfig c = paper_chirp();
  c.samples_per_chirp = 48;
  EXPECT_THROW(RadarPipeline(c, AntennaArray(c), PipelineConfig{}), Error);
  c = paper_chirp();
  c.chirps_per_frame = 12;
  EXPECT_THROW(RadarPipeline(c, AntennaArray(c), PipelineConfig{}), Error);
}

// --- cube oracle ----------------------------------------------------------

using Cd = std::complex<double>;
using Signal = std::vector<Cd>;

/// The §III chain written out one signal at a time through the
/// per-signal dsp:: functions, with the log compression in double: an
/// independent statement of what the pipeline's precomputed maps must
/// reproduce.  Returns the cube in RadarCube's [v][d][angle] order.
std::vector<double> reference_cube(const ChirpConfig& c,
                                   const AntennaArray& arr,
                                   const PipelineConfig& pc,
                                   const IfFrame& frame) {
  const int n_tx = frame.num_tx(), n_rx = frame.num_rx();
  const int n_chirp = frame.chirps(), n_samp = frame.samples();
  const int n_range = pc.cube.range_bins;
  const int n_az = pc.cube.azimuth_bins, n_el = pc.cube.elevation_bins;

  // Range profiles per (tx, rx, chirp): bandpass, window, FFT, crop.
  dsp::SosFilter bandpass;
  if (pc.enable_bandpass) {
    const double fs = c.sample_rate_hz();
    bandpass = dsp::butterworth_bandpass(
        pc.butterworth_order, c.beat_frequency_hz(pc.band_lo_m),
        std::min(c.beat_frequency_hz(pc.band_hi_m), 0.45 * fs), fs);
  }
  const auto range_window =
      dsp::make_window(pc.range_window, static_cast<std::size_t>(n_samp));
  auto profile = [&](int tx, int rx, int chirp) {
    const Cd* in = frame.chirp_data(tx, rx, chirp);
    Signal x(in, in + n_samp);
    if (pc.enable_bandpass) x = bandpass.filtfilt(x);
    for (int s = 0; s < n_samp; ++s) x[s] *= range_window[s];
    return dsp::fft(x);
  };
  std::vector<Signal> profiles;  // index (tx * n_rx + rx) * n_chirp + chirp
  for (int tx = 0; tx < n_tx; ++tx)
    for (int rx = 0; rx < n_rx; ++rx)
      for (int chirp = 0; chirp < n_chirp; ++chirp)
        profiles.push_back(profile(tx, rx, chirp));

  // Doppler spectra per (tx, rx, range bin): window, FFT, fftshift, TDM
  // phase compensation.
  const auto doppler_window =
      dsp::make_window(pc.doppler_window, static_cast<std::size_t>(n_chirp));
  std::vector<Cd> doppler(profiles.size() * n_range);
  auto dop = [&](int tx, int rx, int v, int d) -> Cd& {
    return doppler[((static_cast<std::size_t>(tx) * n_rx + rx) * n_chirp +
                    v) * n_range + d];
  };
  for (int tx = 0; tx < n_tx; ++tx)
    for (int rx = 0; rx < n_rx; ++rx)
      for (int d = 0; d < n_range; ++d) {
        Signal x(n_chirp);
        for (int chirp = 0; chirp < n_chirp; ++chirp)
          x[chirp] = profiles[(tx * n_rx + rx) * n_chirp + chirp][d] *
                     doppler_window[chirp];
        const Signal y = dsp::fft_shift(dsp::fft(x));
        for (int v = 0; v < n_chirp; ++v)
          dop(tx, rx, v, d) =
              y[v] * std::polar(1.0, -2.0 * M_PI * (v - n_chirp / 2) * tx /
                                         (static_cast<double>(n_chirp) *
                                          n_tx));
      }

  // Azimuth and elevation zoom-FFTs per (v, d), bins ordered by angle.
  const double f_max =
      pc.enable_zoom_fft ? std::sin(pc.cube.angle_span_rad()) / 2.0 : 0.5;
  const auto& az_row = arr.azimuth_row();
  const auto& el_row = arr.elevation_row();
  const int n_angle = n_az + n_el;
  std::vector<double> cube(static_cast<std::size_t>(n_chirp) * n_range *
                           n_angle);
  for (int v = 0; v < n_chirp; ++v)
    for (int d = 0; d < n_range; ++d) {
      Signal az;
      for (const auto& [tx, rx] : az_row) az.push_back(dop(tx, rx, v, d));
      Cd row0{}, row1{};
      for (int i = 2; i < 6; ++i) row0 += az[i];
      for (const auto& [tx, rx] : el_row) row1 += dop(tx, rx, v, d);
      const Signal el = {row0 / 4.0,
                         row1 / static_cast<double>(el_row.size())};
      const Signal az_spec = dsp::zoom_fft(az, -f_max, f_max, n_az);
      const Signal el_spec = dsp::zoom_fft(el, -f_max, f_max, n_el);
      double* cell = &cube[(static_cast<std::size_t>(v) * n_range + d) *
                           n_angle];
      for (int a = 0; a < n_az; ++a)
        cell[a] = std::log1p(std::abs(az_spec[n_az - 1 - a]));
      for (int e = 0; e < n_el; ++e)
        cell[n_az + e] = std::log1p(std::abs(el_spec[n_el - 1 - e]));
    }
  return cube;
}

TEST(RadarPipeline, CubeMatchesPerSignalReference) {
  // A noisy scene: a moving hand (so the TDM phase matters) in front of
  // a strong body return and furniture clutter outside the passband.
  const ChirpConfig c;  // default thermal noise
  const AntennaArray arr(c);
  const IfSimulator sim(c, arr);
  const Scene scene{
      {Vec3{0.03, 0.28, 0.01}, Vec3{0.0, 0.9, 0.1}, 1.0},
      {Vec3{-0.02, 0.31, -0.02}, Vec3{0.2, -0.6, 0.0}, 0.6},
      {Vec3{0.05, 0.34, 0.03}, Vec3{-0.1, 1.5, 0.0}, 0.4},
      {Vec3{0.00, 1.00, -0.20}, Vec3{0.0, 0.05, 0.0}, 8.0},   // body
      {Vec3{0.40, 0.95, -0.30}, Vec3{}, 5.0},                 // furniture
      {Vec3{-0.50, 1.10, 0.10}, Vec3{}, 4.0},
  };
  Rng rng(17);
  const IfFrame frame = sim.simulate_frame(scene, 0.0, rng);

  struct RestoreIsa {
    Isa saved = simd::active_isa();
    ~RestoreIsa() { simd::set_isa(saved); }
  } restore;
  for (const Isa isa : simd::kAllIsas) {
    if (simd::kernels_for(isa) == nullptr) continue;
    ASSERT_TRUE(simd::set_isa(isa));
    for (const bool bandpass : {true, false})
      for (const bool zoom : {true, false}) {
        PipelineConfig pc;
        pc.enable_bandpass = bandpass;
        pc.enable_zoom_fft = zoom;
        const auto ref = reference_cube(c, arr, pc, frame);
        const auto got = RadarPipeline(c, arr, pc).process_frame(frame);
        ASSERT_EQ(got.data().size(), ref.size());
        const double max = *std::max_element(ref.begin(), ref.end());
        double err = 0.0;
        for (std::size_t i = 0; i < ref.size(); ++i)
          err = std::max(err, std::abs(got.data()[i] - ref[i]));
        EXPECT_LE(err, 1e-6 * max)
            << simd::isa_name(isa) << " bandpass=" << bandpass
            << " zoom=" << zoom << " cube max " << max;
      }
  }
}

TEST(RadarPipeline, CubeDoesNotDependOnIsaAtConstruction) {
  // The maps are built by the scalar per-signal dsp:: code whatever ISA
  // is active, so a pipeline constructed on a vector table must give the
  // same cube bits as one constructed on the width-1 table.
  const ChirpConfig c;  // default thermal noise
  const AntennaArray arr(c);
  const IfSimulator quiet(paper_chirp(), arr);
  const IfSimulator noisy(c, arr);
  const Scene golden{
      {Vec3{0.05, 0.30, 0.02}, Vec3{0.0, 0.4, 0.0}, 1.0},
      {Vec3{-0.08, 0.45, -0.01}, Vec3{0.0, -0.2, 0.0}, 0.7},
  };
  const Scene hand{
      {Vec3{0.03, 0.28, 0.01}, Vec3{0.0, 0.9, 0.1}, 1.0},
      {Vec3{0.00, 1.00, -0.20}, Vec3{0.0, 0.05, 0.0}, 8.0},
  };
  Rng rng(11);
  std::vector<IfFrame> frames = {quiet.simulate_frame(golden, 0.0, rng)};
  for (int f = 0; f < 4; ++f)
    frames.push_back(noisy.simulate_frame(hand, f * c.frame_period_s, rng));

  struct RestoreIsa {
    Isa saved = simd::active_isa();
    ~RestoreIsa() { simd::set_isa(saved); }
  } restore;
  ASSERT_TRUE(simd::set_isa(Isa::kScalar));
  const RadarPipeline built_scalar(c, arr, PipelineConfig{});
  int tables = 0;
  for (const Isa isa : simd::kAllIsas) {
    if (isa == Isa::kScalar || !simd::set_isa(isa)) continue;
    ++tables;
    const RadarPipeline built_vector(c, arr, PipelineConfig{});
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const auto want = built_scalar.process_frame(frames[f]);
      const auto got = built_vector.process_frame(frames[f]);
      ASSERT_EQ(want.data().size(), got.data().size());
      EXPECT_EQ(std::memcmp(want.data().data(), got.data().data(),
                            want.data().size() * sizeof(float)),
                0)
          << simd::isa_name(isa) << " frame " << f;
    }
  }
  if (tables == 0) GTEST_SKIP() << "no vector ISA";
}

}  // namespace
}  // namespace mmhand::radar
