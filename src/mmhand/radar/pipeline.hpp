#pragma once

// Signal pre-processing pipeline (§III): bandpass filtering, range-FFT,
// Doppler-FFT with TDM phase compensation, and zoom angle-FFTs producing
// the Radar Cube.

#include <complex>
#include <vector>

#include "mmhand/dsp/butterworth.hpp"
#include "mmhand/dsp/window.hpp"
#include "mmhand/radar/antenna_array.hpp"
#include "mmhand/radar/chirp_config.hpp"
#include "mmhand/radar/if_simulator.hpp"
#include "mmhand/radar/radar_cube.hpp"

namespace mmhand::radar {

struct PipelineConfig {
  CubeConfig cube;
  /// Hand range band preserved by the Butterworth bandpass (meters).
  double band_lo_m = 0.08;
  double band_hi_m = 0.90;
  /// Butterworth order; the paper uses an 8th-order filter.
  int butterworth_order = 8;
  bool enable_bandpass = true;
  bool enable_zoom_fft = true;  ///< ablation switch (DESIGN.md)
  dsp::WindowType range_window = dsp::WindowType::kHann;
  dsp::WindowType doppler_window = dsp::WindowType::kHann;
};

/// Turns raw IF frames into Radar Cubes.
class RadarPipeline {
 public:
  RadarPipeline(const ChirpConfig& chirp, const AntennaArray& array,
                const PipelineConfig& config);

  /// Full pre-processing of one frame.
  RadarCube process_frame(const IfFrame& frame) const;

  /// Steady-state variant: assembles the cube into `*out`, reusing its
  /// storage when the shape is unchanged, and staging every
  /// intermediate in grow-on-demand per-thread scratch.  On every ISA
  /// a warmed-up call performs zero heap allocations
  /// (scripts/check_purity.sh asserts this at runtime; `mmhand_lint
  /// --purity` proves it statically from the MMHAND_REALTIME root).
  void process_frame_into(const IfFrame& frame, RadarCube* out) const;

  /// Range represented by range bin d (meters).
  double range_for_bin(int d) const;
  /// Azimuth angle of azimuth bin a (radians); bins ordered left to right.
  double azimuth_for_bin(int a) const;
  /// Elevation angle of elevation bin e (radians).
  double elevation_for_bin(int e) const;
  /// Radial velocity of Doppler bin v (m/s, after fftshift).
  double velocity_for_bin(int v) const;

  const PipelineConfig& config() const { return config_; }
  const ChirpConfig& chirp() const { return chirp_; }

 private:
  /// Range profiles for every (tx, rx, chirp): bandpass + window + FFT,
  /// cropped to the configured range bins.  `filtered` stages the
  /// bandpass batch (num_virtual * samples values, untouched when the
  /// bandpass is disabled); `profiles` receives num_virtual * range_bins
  /// values.
  void range_profiles_into(const IfFrame& frame,
                           std::complex<double>* filtered,
                           std::complex<double>* profiles) const;

  ChirpConfig chirp_;
  const AntennaArray& array_;
  PipelineConfig config_;
  dsp::SosFilter bandpass_;
  std::vector<double> range_window_;
  std::vector<double> doppler_window_;
};

}  // namespace mmhand::radar
