#include "mmhand/radar/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "mmhand/common/aligned.hpp"
#include "mmhand/common/parallel.hpp"
#include "mmhand/common/realtime.hpp"
#include "mmhand/dsp/fft.hpp"
#include "mmhand/obs/context.hpp"
#include "mmhand/obs/metrics.hpp"
#include "mmhand/obs/trace.hpp"
#include "mmhand/simd/simd.hpp"

namespace mmhand::radar {

namespace {

constexpr double kPi = std::numbers::pi;
using Cd = std::complex<double>;

/// Roofline cost model for the DSP stages (`<stage>.flops` /
/// `<stage>.bytes` counters next to the span histograms of the same
/// name).  These are arithmetic estimates of the stage's math — 5·N·log2N
/// per complex FFT, one CZT as three kernel FFTs, 16-byte complex
/// doubles streamed in and out — not measurements, and deliberately
/// identical on every ISA so arithmetic intensity is a property of the
/// algorithm, not the dispatch.
double fft_flops(double n) {
  return 5.0 * n * std::log2(std::max(2.0, n));
}

/// Bluestein/CZT on `n` inputs and `m` output bins: chirp multiply,
/// forward+inverse FFT at the padded size, kernel multiply.
double czt_flops(double n, double m) {
  double fft_n = 2.0;
  while (fft_n < n + m - 1.0) fft_n *= 2.0;
  return 3.0 * fft_flops(fft_n) + 6.0 * (n + m + fft_n);
}

void note_stage_cost(const char* flops_name, const char* bytes_name,
                     double flops, double bytes) {
  obs::counter(flops_name).add(static_cast<std::int64_t>(flops));
  obs::counter(bytes_name).add(static_cast<std::int64_t>(bytes));
}

/// Per-thread SoA scratch for the lane-batched stages; grown on demand
/// so steady-state frames allocate nothing.
double* stage_scratch(std::size_t doubles) {
  thread_local aligned_vector<double> buf;
  if (buf.size() < doubles) buf.resize(doubles);
  return buf.data();
}

}  // namespace

RadarPipeline::RadarPipeline(const ChirpConfig& chirp,
                             const AntennaArray& array,
                             const PipelineConfig& config)
    : chirp_(chirp), array_(array), config_(config) {
  chirp_.validate();
  config_.cube.validate();
  MMHAND_CHECK(config_.cube.range_bins <= chirp_.samples_per_chirp,
               "more range bins than samples per chirp");
  MMHAND_CHECK(config_.band_lo_m < config_.band_hi_m, "bandpass band");
  // The range and Doppler stages are lane-batched radix-2 FFTs.
  MMHAND_CHECK(dsp::is_power_of_two(
                   static_cast<std::size_t>(chirp_.samples_per_chirp)),
               "samples_per_chirp must be a power of two, got "
                   << chirp_.samples_per_chirp);
  MMHAND_CHECK(dsp::is_power_of_two(
                   static_cast<std::size_t>(chirp_.chirps_per_frame)),
               "chirps_per_frame must be a power of two, got "
                   << chirp_.chirps_per_frame);
  if (config_.enable_bandpass) {
    const double fs = chirp_.sample_rate_hz();
    const double f_lo = chirp_.beat_frequency_hz(config_.band_lo_m);
    const double f_hi =
        std::min(chirp_.beat_frequency_hz(config_.band_hi_m), 0.45 * fs);
    bandpass_ = dsp::butterworth_bandpass(config_.butterworth_order, f_lo,
                                          f_hi, fs);
  }
  range_window_ = dsp::make_window(
      config_.range_window,
      static_cast<std::size_t>(chirp_.samples_per_chirp));
  doppler_window_ = dsp::make_window(
      config_.doppler_window,
      static_cast<std::size_t>(chirp_.chirps_per_frame));
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

/// Per-thread frame workspace: every per-frame intermediate (bandpass
/// staging, range profiles, Doppler volume, TDM phase table) lives
/// here, grown on demand and reused across frames, so a warm
/// `process_frame_into` performs no heap allocation
/// (audited in scripts/purity_allowlist.json; scripts/check_purity.sh
/// asserts it at runtime).
struct FrameWorkspace {
  aligned_vector<Cd> filtered;
  aligned_vector<Cd> profiles;
  aligned_vector<Cd> doppler;
  aligned_vector<double> ph_re, ph_im;
};

FrameWorkspace& frame_workspace(std::size_t filtered_n,
                                std::size_t profiles_n,
                                std::size_t doppler_n,
                                std::size_t phase_n) {
  thread_local FrameWorkspace ws;
  if (ws.filtered.size() < filtered_n) ws.filtered.resize(filtered_n);
  if (ws.profiles.size() < profiles_n) ws.profiles.resize(profiles_n);
  if (ws.doppler.size() < doppler_n) ws.doppler.resize(doppler_n);
  if (ws.ph_re.size() < phase_n) ws.ph_re.resize(phase_n);
  if (ws.ph_im.size() < phase_n) ws.ph_im.resize(phase_n);
  return ws;
}

}  // namespace

MMHAND_REALTIME
void RadarPipeline::range_profiles_into(const IfFrame& frame, Cd* filtered,
                                        Cd* profiles) const {
  const int n_tx = frame.num_tx();
  const int n_rx = frame.num_rx();
  const int n_chirp = frame.chirps();
  const int n_samp = frame.samples();
  const int n_range = config_.cube.range_bins;
  const std::int64_t n_virt =
      static_cast<std::int64_t>(n_tx) * n_rx * n_chirp;
  auto chirp_of = [&](std::int64_t idx, int& tx, int& rx, int& c) {
    c = static_cast<int>(idx % n_chirp);
    rx = static_cast<int>((idx / n_chirp) % n_rx);
    tx = static_cast<int>(idx /
                          (static_cast<std::int64_t>(n_chirp) * n_rx));
  };

  // Stage 1: Butterworth bandpass, all chirps in one zero-phase batch
  // (skipped when disabled; the per-chirp op order is the same as the
  // fused loop, so results are unchanged).
  const bool bandpass = config_.enable_bandpass;
  if (bandpass) {
    MMHAND_SPAN("radar/bandpass");
    for (std::int64_t idx = 0; idx < n_virt; ++idx) {
      int tx, rx, c;
      chirp_of(idx, tx, rx, c);
      const Cd* in = frame.chirp_data(tx, rx, c);
      std::copy(in, in + n_samp,
                filtered + static_cast<std::ptrdiff_t>(idx) * n_samp);
    }
    bandpass_.filtfilt_batch(filtered, static_cast<std::size_t>(n_samp),
                             static_cast<std::size_t>(n_virt));
  }

  // Stage 2: window + range-FFT per (tx, rx, chirp); each index owns a
  // disjoint `n_range` slice of `profiles`.  `width` chirps ride the SIMD
  // lanes of one split-complex FFT.  Groups are fixed runs of consecutive
  // chirp indices, so the output is independent of the thread count.
  MMHAND_SPAN("radar/range_fft");
  const auto& kernels = simd::kernels();
  const std::size_t width = static_cast<std::size_t>(kernels.width);
  const std::int64_t groups =
      (n_virt + static_cast<std::int64_t>(width) - 1) /
      static_cast<std::int64_t>(width);
  parallel_for(0, groups, 1, [&](std::int64_t g) {
    const std::size_t ns = static_cast<std::size_t>(n_samp);
    double* re = stage_scratch(2 * ns * width);
    double* im = re + ns * width;
    const std::int64_t first = g * static_cast<std::int64_t>(width);
    const std::size_t lanes = static_cast<std::size_t>(
        std::min<std::int64_t>(static_cast<std::int64_t>(width),
                               n_virt - first));
    for (std::size_t l = 0; l < width; ++l) {
      // Clamp trailing lanes to the last chirp; they are never scattered.
      const std::int64_t idx =
          first + static_cast<std::int64_t>(std::min(l, lanes - 1));
      int tx, rx, c;
      chirp_of(idx, tx, rx, c);
      const Cd* in = bandpass ? filtered +
                                    static_cast<std::size_t>(idx) * ns
                              : frame.chirp_data(tx, rx, c);
      for (std::size_t s = 0; s < ns; ++s) {
        re[s * width + l] = in[s].real();
        im[s * width + l] = in[s].imag();
      }
    }
    kernels.scale_bcast(re, im, range_window_.data(), ns);
    dsp::fft_lanes_pow2(re, im, ns, false);
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t base =
          static_cast<std::size_t>(first + static_cast<std::int64_t>(l)) *
          n_range;
      for (int d = 0; d < n_range; ++d)
        profiles[base + static_cast<std::size_t>(d)] =
            Cd{re[static_cast<std::size_t>(d) * width + l],
               im[static_cast<std::size_t>(d) * width + l]};
    }
  });
}

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
  const int n_tx = frame.num_tx();
  const int n_rx = frame.num_rx();
  const int n_chirp = frame.chirps();
  const int n_samp = frame.samples();
  const int n_range = config_.cube.range_bins;
  const int n_az = config_.cube.azimuth_bins;
  const int n_el = config_.cube.elevation_bins;

  if (obs::metrics_enabled()) {
    // Roofline inputs, credited once per frame from the frame's geometry
    // (cheaper and steadier than instrumenting the inner loops).
    const double nv = static_cast<double>(n_tx) * n_rx * n_chirp;
    const double ns = static_cast<double>(n_samp);
    const double cols = static_cast<double>(n_tx) * n_rx * n_range;
    const double cells = static_cast<double>(n_chirp) * n_range;
    const double az_n = static_cast<double>(array_.azimuth_row().size());
    if (config_.enable_bandpass) {
      // Zero-phase cascade: forward+backward over each complex chirp,
      // ~9 flops per biquad per real sample, two real channels.
      const double sos = static_cast<double>(bandpass_.sections().size());
      note_stage_cost("radar/bandpass.flops", "radar/bandpass.bytes",
                      36.0 * sos * nv * ns, 64.0 * nv * ns);
    }
    note_stage_cost("radar/range_fft.flops", "radar/range_fft.bytes",
                    nv * (fft_flops(ns) + 6.0 * ns),
                    16.0 * nv * (ns + n_range));
    note_stage_cost("radar/doppler_fft.flops", "radar/doppler_fft.bytes",
                    cols * (fft_flops(n_chirp) + 12.0 * n_chirp),
                    32.0 * cols * n_chirp);
    note_stage_cost("radar/zoom_angle_fft.flops",
                    "radar/zoom_angle_fft.bytes",
                    cells * (czt_flops(az_n, n_az) + czt_flops(2.0, n_el) +
                             10.0 * (n_az + n_el)),
                    cells * (16.0 * (az_n + 2.0) + 4.0 * (n_az + n_el)));
  }

  // All per-frame intermediates live in the per-thread workspace; the
  // first frame on a thread sizes it, later frames stage into warm
  // storage.
  const std::int64_t n_virt =
      static_cast<std::int64_t>(n_tx) * n_rx * n_chirp;
  const std::size_t profile_n =
      static_cast<std::size_t>(n_virt) * n_range;
  FrameWorkspace& ws = frame_workspace(
      config_.enable_bandpass
          ? static_cast<std::size_t>(n_virt) * n_samp
          : 0,
      profile_n, profile_n,
      static_cast<std::size_t>(n_tx) * n_chirp);

  range_profiles_into(frame, ws.filtered.data(), ws.profiles.data());
  const Cd* profiles = ws.profiles.data();
  auto profile_at = [&](int tx, int rx, int c, int d) -> Cd {
    return profiles[((static_cast<std::size_t>(tx) * n_rx + rx) * n_chirp +
                     c) *
                        n_range +
                    static_cast<std::size_t>(d)];
  };

  // Doppler-FFT per (tx, rx, range bin), with fftshift and TDM phase
  // compensation: TX i fires i*Tc later within each chirp loop, adding a
  // Doppler-dependent phase 2*pi*f_d*i*Tc that must be removed before the
  // angle-FFT can combine virtual channels coherently.
  Cd* doppler = ws.doppler.data();
  auto doppler_at = [&](int tx, int rx, int v, int d) -> Cd& {
    return doppler[((static_cast<std::size_t>(tx) * n_rx + rx) * n_chirp +
                    v) *
                       n_range +
                   static_cast<std::size_t>(d)];
  };
  // One Doppler-FFT per (tx, rx, range bin); each index owns the
  // doppler(tx, rx, *, d) column.
  {
    MMHAND_SPAN("radar/doppler_fft");
    const std::int64_t n_cols =
        static_cast<std::int64_t>(n_tx) * n_rx * n_range;
    // TDM compensation factors depend only on (tx, doppler bin);
    // recompute the n_tx * n_chirp table into the workspace each frame.
    const std::size_t nc = static_cast<std::size_t>(n_chirp);
    double* ph_re = ws.ph_re.data();
    double* ph_im = ws.ph_im.data();
    for (int tx = 0; tx < n_tx; ++tx)
      for (int v = 0; v < n_chirp; ++v) {
        const int k = v - n_chirp / 2;
        const double comp = -2.0 * kPi * static_cast<double>(k) *
                            static_cast<double>(tx) /
                            (static_cast<double>(n_chirp) * n_tx);
        const Cd p = std::polar(1.0, comp);
        ph_re[static_cast<std::size_t>(tx) * nc + v] = p.real();
        ph_im[static_cast<std::size_t>(tx) * nc + v] = p.imag();
      }
    const auto& kernels = simd::kernels();
    const std::size_t width = static_cast<std::size_t>(kernels.width);
    const std::size_t half = (nc + 1) / 2;  // fft_shift offset
    const std::int64_t groups =
        (n_cols + static_cast<std::int64_t>(width) - 1) /
        static_cast<std::int64_t>(width);
    parallel_for(0, groups, 1, [&](std::int64_t g) {
      double* re = stage_scratch(4 * nc * width);
      double* im = re + nc * width;
      double* pr = im + nc * width;
      double* pi = pr + nc * width;
      const std::int64_t first = g * static_cast<std::int64_t>(width);
      const std::size_t lanes = static_cast<std::size_t>(
          std::min<std::int64_t>(static_cast<std::int64_t>(width),
                                 n_cols - first));
      int txs[8], rxs[8], ds[8];
      for (std::size_t l = 0; l < width; ++l) {
        const std::int64_t idx =
            first + static_cast<std::int64_t>(std::min(l, lanes - 1));
        ds[l] = static_cast<int>(idx % n_range);
        rxs[l] = static_cast<int>((idx / n_range) % n_rx);
        txs[l] = static_cast<int>(
            idx / (static_cast<std::int64_t>(n_range) * n_rx));
        for (int c = 0; c < n_chirp; ++c) {
          const Cd p = profile_at(txs[l], rxs[l], c, ds[l]);
          re[static_cast<std::size_t>(c) * width + l] = p.real();
          im[static_cast<std::size_t>(c) * width + l] = p.imag();
        }
      }
      kernels.scale_bcast(re, im, doppler_window_.data(), nc);
      dsp::fft_lanes_pow2(re, im, nc, false);
      // Apply the TDM phase in pre-shift row order: row r lands at
      // shifted bin v with r = (v + half) % nc.
      for (std::size_t r = 0; r < nc; ++r) {
        const std::size_t v = (r + nc - half) % nc;
        for (std::size_t l = 0; l < width; ++l) {
          pr[r * width + l] =
              ph_re[static_cast<std::size_t>(txs[l]) * nc + v];
          pi[r * width + l] =
              ph_im[static_cast<std::size_t>(txs[l]) * nc + v];
        }
      }
      kernels.cmul(re, im, pr, pi, nc * width);
      for (std::size_t l = 0; l < lanes; ++l)
        for (std::size_t v = 0; v < nc; ++v) {
          const std::size_t r = (v + half) % nc;
          doppler_at(txs[l], rxs[l], static_cast<int>(v), ds[l]) =
              Cd{re[r * width + l], im[r * width + l]};
        }
    });
  }

  // Angle-FFTs.  The azimuth row is an 8-element lambda/2 ULA; spatial
  // frequency f = d*sin(theta)/lambda = sin(theta)/2 cycles/element.  The
  // zoom-FFT evaluates only the +-angle_span band on a fine grid (§III's
  // refinement); disabling zoom widens the band to +-90 deg at the same bin
  // count, emulating the plain angle-FFT.
  const double span = config_.cube.angle_span_rad();
  const double f_max =
      config_.enable_zoom_fft ? std::sin(span) / 2.0 : 0.5;
  const auto& az_row = array_.azimuth_row();
  const auto& el_row = array_.elevation_row();

  // Cube assembly: shape (or reshape) and zero the output tensor the
  // angle stage fills in place; same-shaped reuse keeps the storage.
  {
    MMHAND_SPAN("radar/cube_assembly");
    out->reset(n_chirp, n_range, n_az + n_el);
  }
  RadarCube& cube = *out;
  // One zoom angle-FFT pair per (v, d); each index owns the cube(v, d, *)
  // fiber.
  MMHAND_SPAN("radar/zoom_angle_fft");
  const std::int64_t n_cells =
      static_cast<std::int64_t>(n_chirp) * n_range;
  // `width` (v, d) cells share the lane-batched Bluestein plans: the
  // per-cell chirp factors and kernel FFT are amortized into the cached
  // plans, and the two convolution FFTs per cell run across lanes.
  const auto& kernels = simd::kernels();
  const std::size_t width = static_cast<std::size_t>(kernels.width);
  const std::size_t az_n = az_row.size();
  const dsp::CztPlan& az_plan =
      dsp::zoom_plan(az_n, -f_max, f_max, static_cast<std::size_t>(n_az));
  const dsp::CztPlan& el_plan =
      dsp::zoom_plan(2, -f_max, f_max, static_cast<std::size_t>(n_el));
  const std::int64_t groups =
      (n_cells + static_cast<std::int64_t>(width) - 1) /
      static_cast<std::int64_t>(width);
  parallel_for(0, groups, 1, [&](std::int64_t g) {
    const std::size_t na = static_cast<std::size_t>(n_az);
    const std::size_t ne = static_cast<std::size_t>(n_el);
    const std::size_t mag_n = std::max(na, ne) * width;
    double* sig_re = stage_scratch(2 * az_n * width + 2 * na * width +
                                   2 * 2 * width + 2 * ne * width + mag_n);
    double* sig_im = sig_re + az_n * width;
    double* out_re = sig_im + az_n * width;
    double* out_im = out_re + na * width;
    double* el_re = out_im + na * width;
    double* el_im = el_re + 2 * width;
    double* eo_re = el_im + 2 * width;
    double* eo_im = eo_re + ne * width;
    double* mag = eo_im + ne * width;
    const std::int64_t first = g * static_cast<std::int64_t>(width);
    const std::size_t lanes = static_cast<std::size_t>(
        std::min<std::int64_t>(static_cast<std::int64_t>(width),
                               n_cells - first));
    int vs[8], ds[8];
    for (std::size_t l = 0; l < width; ++l) {
      const std::int64_t cell =
          first + static_cast<std::int64_t>(std::min(l, lanes - 1));
      vs[l] = static_cast<int>(cell / n_range);
      ds[l] = static_cast<int>(cell % n_range);
      for (std::size_t i = 0; i < az_n; ++i) {
        const Cd s = doppler_at(az_row[i].first, az_row[i].second, vs[l],
                                ds[l]);
        sig_re[i * width + l] = s.real();
        sig_im[i * width + l] = s.imag();
      }
      // Elevation: a 2-element lambda/2 vertical aperture formed by the
      // overlapping x-span of the base row and the raised TX2 row.
      Cd row0{};
      for (std::size_t i = 2; i < 6 && i < az_n; ++i)
        row0 += doppler_at(az_row[i].first, az_row[i].second, vs[l], ds[l]);
      row0 /= 4.0;
      Cd row1{};
      for (const auto& [tx, rx] : el_row)
        row1 += doppler_at(tx, rx, vs[l], ds[l]);
      row1 /= static_cast<double>(el_row.size());
      el_re[0 * width + l] = row0.real();
      el_im[0 * width + l] = row0.imag();
      el_re[1 * width + l] = row1.real();
      el_im[1 * width + l] = row1.imag();
    }
    // IF phase grows with path length, so elements closer to a target on
    // the +x side have *smaller* phase: the array response is
    // exp(-j*2*pi*f*i).  The DFT therefore peaks at -f; read the band
    // from +f_max down to -f_max so bin index increases with theta.
    az_plan.run_lanes(sig_re, sig_im, out_re, out_im);
    kernels.vmag(out_re, out_im, mag, na * width);
    for (std::size_t l = 0; l < lanes; ++l)
      for (int a = 0; a < n_az; ++a)
        cube.at(vs[l], ds[l], a) = static_cast<float>(std::log1p(
            mag[static_cast<std::size_t>(n_az - 1 - a) * width + l]));
    el_plan.run_lanes(el_re, el_im, eo_re, eo_im);
    kernels.vmag(eo_re, eo_im, mag, ne * width);
    for (std::size_t l = 0; l < lanes; ++l)
      for (int e = 0; e < n_el; ++e)
        cube.at(vs[l], ds[l], n_az + e) = static_cast<float>(std::log1p(
            mag[static_cast<std::size_t>(n_el - 1 - e) * width + l]));
  });
}

MMHAND_REALTIME
RadarCube RadarPipeline::process_frame(const IfFrame& frame) const {
  RadarCube cube;
  process_frame_into(frame, &cube);
  return cube;
}

}  // namespace mmhand::radar
