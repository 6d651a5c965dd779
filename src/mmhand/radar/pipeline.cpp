#include "mmhand/radar/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <vector>

#include "mmhand/common/realtime.hpp"
#include "mmhand/dsp/butterworth.hpp"
#include "mmhand/dsp/fft.hpp"
#include "mmhand/obs/context.hpp"
#include "mmhand/obs/metrics.hpp"
#include "mmhand/obs/trace.hpp"
#include "mmhand/simd/simd.hpp"

namespace mmhand::radar {

namespace {

constexpr double kPi = std::numbers::pi;
using Cd = std::complex<double>;
using Signal = std::vector<Cd>;

ComplexMap zero_map(std::size_t rows, std::size_t cols) {
  return {rows, cols, aligned_vector<double>(rows * cols, 0.0),
          aligned_vector<double>(rows * cols, 0.0)};
}

void set(ComplexMap& m, std::size_t r, std::size_t c, Cd v) {
  m.re[r * m.cols + c] = v.real();
  m.im[r * m.cols + c] = v.imag();
}

/// Roofline inputs (`<stage>.flops` / `<stage>.bytes` counters next to
/// the span histograms of the same name) for `count` split-complex
/// products of shape m x n x k: 8 flops per complex multiply-add, and A,
/// B and C streamed once each as 16-byte complex doubles, plus
/// `extra_bytes`.  Arithmetic estimates from the map shapes, not
/// measurements, and identical on every ISA, so arithmetic intensity is
/// a property of the algorithm, not the dispatch.
void note_products(obs::Counter& flops, obs::Counter& bytes, double count,
                   double m, double n, double k, double extra_bytes = 0.0) {
  flops.add(static_cast<std::int64_t>(count * 8.0 * m * n * k));
  bytes.add(static_cast<std::int64_t>(
      count * 16.0 * (m * k + k * n + m * n) + extra_bytes));
}

}  // namespace

// Every map is linear, so column j is the image of the unit impulse e_j
// pushed through the per-signal dsp:: functions: exact up to rounding,
// and the stage definitions live in one place.
RadarPipeline::RadarPipeline(const ChirpConfig& chirp,
                             const AntennaArray& array,
                             const PipelineConfig& config)
    : chirp_(chirp), config_(config) {
  chirp_.validate();
  config_.cube.validate();
  MMHAND_CHECK(config_.cube.range_bins <= chirp_.samples_per_chirp,
               "more range bins than samples per chirp");
  MMHAND_CHECK(config_.band_lo_m < config_.band_hi_m, "bandpass band");
  // The maps are built from radix-2 FFTs.
  MMHAND_CHECK(dsp::is_power_of_two(
                   static_cast<std::size_t>(chirp_.samples_per_chirp)),
               "samples_per_chirp must be a power of two, got "
                   << chirp_.samples_per_chirp);
  MMHAND_CHECK(dsp::is_power_of_two(
                   static_cast<std::size_t>(chirp_.chirps_per_frame)),
               "chirps_per_frame must be a power of two, got "
                   << chirp_.chirps_per_frame);
  const auto n_samp = static_cast<std::size_t>(chirp_.samples_per_chirp);
  const auto n_chirp = static_cast<std::size_t>(chirp_.chirps_per_frame);
  const auto n_range = static_cast<std::size_t>(config_.cube.range_bins);
  const auto n_tx = static_cast<std::size_t>(array.num_tx());
  const auto n_rx = static_cast<std::size_t>(array.num_rx());

  // Range: bandpass, window, FFT, crop to the leading range bins.
  dsp::SosFilter bandpass;
  if (config_.enable_bandpass) {
    const double fs = chirp_.sample_rate_hz();
    const double f_lo = chirp_.beat_frequency_hz(config_.band_lo_m);
    const double f_hi =
        std::min(chirp_.beat_frequency_hz(config_.band_hi_m), 0.45 * fs);
    bandpass = dsp::butterworth_bandpass(config_.butterworth_order, f_lo,
                                         f_hi, fs);
  }
  const auto range_window = dsp::make_window(config_.range_window, n_samp);
  range_map_ = zero_map(n_samp, n_range);
  for (std::size_t s = 0; s < n_samp; ++s) {
    // The filter is real, so the impulse's response is too.
    std::vector<double> h(n_samp);
    h[s] = 1.0;
    if (config_.enable_bandpass) h = bandpass.filtfilt(h);
    Signal x(n_samp);
    for (std::size_t t = 0; t < n_samp; ++t) x[t] = h[t] * range_window[t];
    const Signal y = dsp::fft(x);
    for (std::size_t d = 0; d < n_range; ++d) set(range_map_, s, d, y[d]);
  }

  // Doppler: window, FFT, fftshift, then TDM phase compensation.  TX i
  // fires i*Tc later within each chirp loop, adding a Doppler-dependent
  // phase 2*pi*f_d*i*Tc that must be removed before the angle stage can
  // combine virtual channels coherently.
  const auto doppler_window = dsp::make_window(config_.doppler_window, n_chirp);
  Signal tdm(n_tx * n_chirp);
  for (std::size_t tx = 0; tx < n_tx; ++tx)
    for (std::size_t v = 0; v < n_chirp; ++v) {
      const double k =  // signed bin after fftshift
          static_cast<double>(v) - static_cast<double>(n_chirp / 2);
      tdm[tx * n_chirp + v] = std::polar(
          1.0, -2.0 * kPi * k * static_cast<double>(tx) /
                   static_cast<double>(n_chirp * n_tx));
    }
  doppler_map_ = zero_map(n_tx * n_chirp, n_chirp);
  for (std::size_t c = 0; c < n_chirp; ++c) {
    Signal x(n_chirp);
    x[c] = doppler_window[c];
    const Signal y = dsp::fft_shift(dsp::fft(x));
    for (std::size_t row = 0; row < n_tx * n_chirp; ++row)
      set(doppler_map_, row, c, y[row % n_chirp] * tdm[row]);
  }

  // Angle.  The azimuth row is an 8-element lambda/2 ULA; spatial
  // frequency f = d*sin(theta)/lambda = sin(theta)/2 cycles/element.  The
  // zoom-FFT evaluates only the +-angle_span band on a fine grid (§III's
  // refinement); disabling zoom widens the band to +-90 deg at the same
  // bin count, emulating the plain angle-FFT.
  const double f_max = config_.enable_zoom_fft
                           ? std::sin(config_.cube.angle_span_rad()) / 2.0
                           : 0.5;
  const auto& az_row = array.azimuth_row();
  const auto& el_row = array.elevation_row();
  const auto n_az = static_cast<std::size_t>(config_.cube.azimuth_bins);
  const auto n_el = static_cast<std::size_t>(config_.cube.elevation_bins);
  angle_map_ = zero_map(n_tx * n_rx, n_az + n_el);
  for (std::size_t ch = 0; ch < n_tx * n_rx; ++ch) {
    auto is_channel = [&](const std::pair<int, int>& e) {
      const auto tx = static_cast<std::size_t>(e.first);
      return tx * n_rx + static_cast<std::size_t>(e.second) == ch ? 1.0 : 0.0;
    };
    Signal az(az_row.size());
    for (std::size_t i = 0; i < az.size(); ++i) az[i] = is_channel(az_row[i]);
    // Elevation: a 2-element lambda/2 vertical aperture formed by the
    // overlapping x-span of the base row and the raised TX2 row.
    Cd row0{};
    for (std::size_t i = 2; i < 6 && i < az.size(); ++i) row0 += az[i];
    row0 /= 4.0;
    Cd row1{};
    for (const auto& e : el_row) row1 += is_channel(e);
    row1 /= static_cast<double>(el_row.size());
    // IF phase grows with path length, so elements closer to a target on
    // the +x side have *smaller* phase: the array response is
    // exp(-j*2*pi*f*i).  The DFT therefore peaks at -f; read the band
    // from +f_max down to -f_max so bin index increases with theta.
    const Signal az_spec = dsp::zoom_fft(az, -f_max, f_max, n_az);
    const Signal el_spec = dsp::zoom_fft(Signal{row0, row1}, -f_max, f_max,
                                         n_el);
    for (std::size_t a = 0; a < n_az; ++a)
      set(angle_map_, ch, a, az_spec[n_az - 1 - a]);
    for (std::size_t e = 0; e < n_el; ++e)
      set(angle_map_, ch, n_az + e, el_spec[n_el - 1 - e]);
  }
}

double RadarPipeline::range_for_bin(int d) const {
  const double bin_hz = chirp_.sample_rate_hz() /
                        static_cast<double>(chirp_.samples_per_chirp);
  return chirp_.range_for_beat(bin_hz * static_cast<double>(d));
}

double RadarPipeline::azimuth_for_bin(int a) const {
  const int n = config_.cube.azimuth_bins;
  MMHAND_CHECK(a >= 0 && a < n, "azimuth bin " << a);
  const double span = config_.cube.angle_span_rad();
  // Bins sample sin(theta) uniformly across [-sin(span), sin(span)].
  const double s = -std::sin(span) +
                   (2.0 * std::sin(span)) * (static_cast<double>(a) + 0.5) /
                       static_cast<double>(n);
  return std::asin(s);
}

double RadarPipeline::elevation_for_bin(int e) const {
  const int n = config_.cube.elevation_bins;
  MMHAND_CHECK(e >= 0 && e < n, "elevation bin " << e);
  const double span = config_.cube.angle_span_rad();
  const double s = -std::sin(span) +
                   (2.0 * std::sin(span)) * (static_cast<double>(e) + 0.5) /
                       static_cast<double>(n);
  return std::asin(s);
}

double RadarPipeline::velocity_for_bin(int v) const {
  const int n = chirp_.chirps_per_frame;
  MMHAND_CHECK(v >= 0 && v < n, "doppler bin " << v);
  const int k = v - n / 2;  // signed bin after fftshift
  const double doppler_hz =
      static_cast<double>(k) /
      (static_cast<double>(n) * chirp_.tdm_chirp_period_s());
  return doppler_hz * chirp_.wavelength_m() / 2.0;
}


namespace {

/// Per-thread frame workspace for the range, Doppler and angle spectra,
/// grown on demand and reused across frames, so a warm
/// `process_frame_into` performs no heap allocation (audited in
/// scripts/purity_allowlist.json; scripts/check_purity.sh asserts it at
/// runtime).
double* frame_workspace(std::size_t doubles) {
  thread_local aligned_vector<double> buf;
  if (buf.size() < doubles) buf.resize(doubles);
  return buf.data();
}

}  // namespace

MMHAND_REALTIME
void RadarPipeline::process_frame_into(const IfFrame& frame,
                                       RadarCube* out) const {
  // Span first, frame scope second: the scope's flow anchor lands inside
  // the frame slice, and the scope closes (emitting its per-frame record)
  // before the frame span records itself, so the frame is not a stage of
  // its own record.
  MMHAND_SPAN("radar/process_frame");
  obs::FrameScope frame_scope("radar/process_frame");
  if (obs::metrics_enabled()) {
    static obs::Counter& frames = obs::counter("radar/frames");
    frames.add(1);
  }
  const auto n_tx = static_cast<std::size_t>(frame.num_tx());
  const auto n_ch = n_tx * static_cast<std::size_t>(frame.num_rx());
  const auto n_chirp = static_cast<std::size_t>(frame.chirps());
  const auto n_samp = static_cast<std::size_t>(frame.samples());
  MMHAND_CHECK(n_tx * n_chirp == doppler_map_.rows &&
                   n_ch == angle_map_.rows && n_samp == range_map_.rows,
               "IF frame geometry does not match the pipeline's chirp config");
  const std::size_t n_range = range_map_.cols;
  const std::size_t n_angle = angle_map_.cols;
  const std::size_t n_cells = n_chirp * n_range;  // (velocity, range) cells

  if (obs::metrics_enabled()) {
    // Credited once per frame from the map shapes (cheaper and steadier
    // than instrumenting the kernels).  The angle stage also reads its
    // product once more and writes the float cube.
    static obs::Counter& range_flops = obs::counter("radar/range_fft.flops");
    static obs::Counter& range_bytes = obs::counter("radar/range_fft.bytes");
    static obs::Counter& doppler_flops =
        obs::counter("radar/doppler_fft.flops");
    static obs::Counter& doppler_bytes =
        obs::counter("radar/doppler_fft.bytes");
    static obs::Counter& angle_flops =
        obs::counter("radar/zoom_angle_fft.flops");
    static obs::Counter& angle_bytes =
        obs::counter("radar/zoom_angle_fft.bytes");
    const double ch = static_cast<double>(n_ch);
    const double nc = static_cast<double>(n_chirp);
    const double nr = static_cast<double>(n_range);
    const double cells = static_cast<double>(n_cells);
    const double na = static_cast<double>(n_angle);
    note_products(range_flops, range_bytes, 1.0, ch * nc, nr,
                  static_cast<double>(n_samp));
    note_products(doppler_flops, doppler_bytes, ch, nc, nr, nc);
    note_products(angle_flops, angle_bytes, 1.0, cells, na, ch,
                  20.0 * cells * na);
  }

  // Range, Doppler and angle spectra, split re/im.  The range and Doppler
  // spectra are [channel][chirp or velocity bin][range bin]; the angle
  // spectrum is [velocity bin][range bin][angle bin], the cube's layout.
  const std::size_t spectrum = n_ch * n_cells;
  double* rng_re = frame_workspace(4 * spectrum + 2 * n_cells * n_angle);
  double* rng_im = rng_re + spectrum;
  double* dop_re = rng_im + spectrum;
  double* dop_im = dop_re + spectrum;
  double* ang_re = dop_im + spectrum;
  double* ang_im = ang_re + n_cells * n_angle;
  const auto& kernels = simd::kernels();

  {
    // A is the frame itself: one row per (tx, rx, chirp), read in place
    // as interleaved complex doubles.
    MMHAND_SPAN("radar/range_fft");
    const double* x =
        reinterpret_cast<const double*>(frame.chirp_data(0, 0, 0));
    kernels.cgemm({.a_re = x, .a_im = x + 1, .a_row = 2 * n_samp,
                   .a_col = 2, .b_re = range_map_.re.data(),
                   .b_im = range_map_.im.data(), .ldb = n_range,
                   .c_re = rng_re, .c_im = rng_im, .ldc = n_range,
                   .m = static_cast<int>(n_ch * n_chirp),
                   .n = static_cast<int>(n_range),
                   .k = static_cast<int>(n_samp)});
  }
  {
    // One product per virtual channel: its TX's map times the channel's
    // [chirp][range bin] block.
    MMHAND_SPAN("radar/doppler_fft");
    for (std::size_t ch = 0; ch < n_ch; ++ch) {
      const std::size_t map = ch / (n_ch / n_tx) * n_chirp * n_chirp;
      const std::size_t block = ch * n_cells;
      kernels.cgemm({.a_re = doppler_map_.re.data() + map,
                     .a_im = doppler_map_.im.data() + map,
                     .a_row = n_chirp, .a_col = 1,
                     .b_re = rng_re + block, .b_im = rng_im + block,
                     .ldb = n_range, .c_re = dop_re + block,
                     .c_im = dop_im + block, .ldc = n_range,
                     .m = static_cast<int>(n_chirp),
                     .n = static_cast<int>(n_range),
                     .k = static_cast<int>(n_chirp)});
    }
  }
  {
    MMHAND_SPAN("radar/cube_assembly");
    out->reset(static_cast<int>(n_chirp), static_cast<int>(n_range),
               static_cast<int>(n_angle));
  }
  // A(cell, ch) is channel ch's Doppler spectrum at the cell, so the rows
  // of C are cube cells and the log pass writes the cube in order.
  MMHAND_SPAN("radar/zoom_angle_fft");
  kernels.cgemm({.a_re = dop_re, .a_im = dop_im, .a_row = 1,
                 .a_col = n_cells, .b_re = angle_map_.re.data(),
                 .b_im = angle_map_.im.data(), .ldb = n_angle,
                 .c_re = ang_re, .c_im = ang_im, .ldc = n_angle,
                 .m = static_cast<int>(n_cells),
                 .n = static_cast<int>(n_angle),
                 .k = static_cast<int>(n_ch)});
  kernels.log1p_abs(ang_re, ang_im, out->data().data(), n_cells * n_angle);
}

MMHAND_REALTIME
RadarCube RadarPipeline::process_frame(const IfFrame& frame) const {
  RadarCube cube;
  process_frame_into(frame, &cube);
  return cube;
}

}  // namespace mmhand::radar
