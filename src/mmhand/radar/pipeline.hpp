#pragma once

// Signal pre-processing pipeline (§III): bandpass filtering, range-FFT,
// Doppler-FFT with TDM phase compensation, and zoom angle-FFTs producing
// the Radar Cube.  Everything before the magnitude is linear in the IF
// samples, so the constructor folds each stage into one small complex
// map and a frame is three matrix products plus log compression
// (DESIGN §3).

#include "mmhand/common/aligned.hpp"
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

/// A row-major split-complex matrix.
struct ComplexMap {
  std::size_t rows = 0, cols = 0;
  aligned_vector<double> re, im;
};

/// Turns raw IF frames into Radar Cubes.
class RadarPipeline {
 public:
  RadarPipeline(const ChirpConfig& chirp, const AntennaArray& array,
                const PipelineConfig& config);

  /// Full pre-processing of one frame.
  RadarCube process_frame(const IfFrame& frame) const;

  /// Steady-state variant: assembles the cube into `*out`, reusing its
  /// storage when the shape is unchanged, and staging the range,
  /// Doppler and angle spectra in a grow-on-demand per-thread workspace.
  /// The frame must have the chirp config's geometry.  On every ISA
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
  ChirpConfig chirp_;
  PipelineConfig config_;
  /// B operand of the range product: [sample][range bin], the bandpass,
  /// range window, FFT and crop applied to one chirp.
  ComplexMap range_map_;
  /// A operands of the Doppler products, one per TX stacked by rows:
  /// [tx][velocity bin][chirp], the Doppler window, FFT, fftshift and
  /// TDM phase compensation.
  ComplexMap doppler_map_;
  /// B operand of the angle product: [virtual channel][angle bin], the
  /// azimuth zoom-FFT, the elevation row averages and zoom-FFT, and the
  /// bin reversal that orders both spectra by increasing angle.
  ComplexMap angle_map_;
};

}  // namespace mmhand::radar
