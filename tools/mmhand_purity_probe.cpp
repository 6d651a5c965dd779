// mmhand_purity_probe — runtime half of the hot-path purity gate.
//
//   mmhand_purity_probe [--frames N] [--warmup N] [--json]
//
// Drives warmed-up steady-state radar frames through
// RadarPipeline::process_frame_into with the operator-new interposer
// (obs/alloc) counting, and asserts the per-frame allocation delta is
// exactly zero on every ISA.  This closes the static analyzer's blind
// spots (`mmhand_lint --purity` cannot see allocation behind value
// construction or function pointers); together the two prove the claim
// in DESIGN.md §12.
//
// The pose forward path is gated the same way: with the tensor pool on
// (nn::set_tensor_pool_enabled), every value-returned activation tensor
// recycles a parked buffer from the thread-local free list, so a warmed
// steady-state forward allocates nothing.  This is the invariant the
// serving layer relies on for allocation-free steady-state batching.
//
// The served frame path is gated too: a warm manual-step serve::Server
// takes frames that do not complete a window (submit stores the raw
// cube) and runs the feature passes that normalize them and compute
// their mmSpaceNet features.  Neither may allocate, also not for an
// all-zero frame (a dropped capture), whose median bin holds every
// cell.
//
// Exit status: 0 when steady-state radar frames, pose forwards and
// served frames allocate nothing, on every ISA; 1 otherwise.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mmhand/common/rng.hpp"
#include "mmhand/nn/tensor.hpp"
#include "mmhand/obs/alloc.hpp"
#include "mmhand/pose/joint_model.hpp"
#include "mmhand/pose/trainer.hpp"
#include "mmhand/radar/antenna_array.hpp"
#include "mmhand/radar/chirp_config.hpp"
#include "mmhand/radar/if_simulator.hpp"
#include "mmhand/radar/pipeline.hpp"
#include "mmhand/serve/server.hpp"
#include "mmhand/simd/simd.hpp"

namespace {

using mmhand::Rng;
using mmhand::Vec3;

struct Stats {
  std::int64_t allocs = 0;
  std::int64_t bytes = 0;
  std::int64_t max_frame_allocs = 0;
};

/// Allocation delta across `frames` calls of `fn`, tracking the worst
/// single call.
template <typename Fn>
Stats measure(int frames, Fn&& fn) {
  Stats s;
  for (int i = 0; i < frames; ++i) {
    const auto before = mmhand::obs::alloc_counts();
    fn();
    const auto after = mmhand::obs::alloc_counts();
    const std::int64_t d = after.allocs - before.allocs;
    s.allocs += d;
    s.bytes += after.bytes - before.bytes;
    if (d > s.max_frame_allocs) s.max_frame_allocs = d;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  int frames = 30;
  int warmup = 5;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--frames" && i + 1 < argc) {
      frames = std::atoi(argv[++i]);
    } else if (arg == "--warmup" && i + 1 < argc) {
      warmup = std::atoi(argv[++i]);
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr,
                   "usage: mmhand_purity_probe [--frames N] [--warmup N]"
                   " [--json]\n");
      return arg == "-h" || arg == "--help" ? 0 : 2;
    }
  }
  if (frames < 1 || warmup < 0) {
    std::fprintf(stderr, "mmhand_purity_probe: bad --frames/--warmup\n");
    return 2;
  }

  // Paper-shaped frame, as in bench_throughput.
  mmhand::radar::ChirpConfig chirp;
  chirp.noise_stddev = 0.0;
  const mmhand::radar::AntennaArray array(chirp);
  const mmhand::radar::IfSimulator sim(chirp, array);
  const mmhand::radar::PipelineConfig pc;
  const mmhand::radar::RadarPipeline pipe(chirp, array, pc);
  mmhand::radar::Scene scene{
      {Vec3{0.05, 0.30, 0.02}, Vec3{0.0, 0.4, 0.0}, 1.0},
      {Vec3{-0.08, 0.45, -0.01}, Vec3{0.0, -0.2, 0.0}, 0.7},
  };
  Rng frame_rng(1);
  const auto frame = sim.simulate_frame(scene, 0.0, frame_rng);

  // Pose model at cube-matched dims.
  mmhand::pose::PoseNetConfig pose_cfg;
  pose_cfg.velocity_bins = chirp.chirps_per_frame;
  pose_cfg.range_bins = pc.cube.range_bins;
  pose_cfg.angle_bins = pc.cube.total_angle_bins();
  Rng model_rng(2);
  mmhand::pose::HandJointRegressor model(pose_cfg, model_rng);
  mmhand::pose::PoseSample sample;
  sample.input = mmhand::nn::Tensor::randn(
      {pose_cfg.frames_per_sample(), pose_cfg.velocity_bins,
       pose_cfg.range_bins, pose_cfg.angle_bins},
      model_rng, 1.0);

  // Warm-up: sizes every grow-on-demand scratch (per worker thread) and
  // builds the FFT twiddle/plan caches, all with tracking off.
  mmhand::radar::RadarCube cube;
  for (int i = 0; i < warmup; ++i) pipe.process_frame_into(frame, &cube);
  mmhand::nn::Tensor pose_out = mmhand::pose::predict_sample(model, sample);

  // Steady state means a full batch of frames with zero allocations.
  // Which pool worker first touches a stage's grow-on-demand scratch is
  // a claiming race (common/parallel chunk assignment is dynamic), so a
  // worker that sat out every warm-up region can grow its scratch
  // frames later — early batches may see a handful of stragglers.  A
  // real per-frame leak allocates in every batch and never settles.
  constexpr int kMaxBatches = 8;
  mmhand::obs::set_alloc_tracking(true);
  Stats radar;
  std::int64_t stray = 0;
  int batches = 0;
  while (batches < kMaxBatches) {
    radar = measure(frames, [&] { pipe.process_frame_into(frame, &cube); });
    ++batches;
    if (radar.allocs == 0) break;
    stray += radar.allocs;
  }
  // Pose: the tensor pool turns per-forward activation tensors into
  // free-list recycling.  One pool-on forward parks the buffers; the
  // settle loop absorbs stragglers exactly like the radar path.
  mmhand::obs::set_alloc_tracking(false);
  mmhand::nn::set_tensor_pool_enabled(true);
  pose_out = mmhand::pose::predict_sample(model, sample);
  mmhand::obs::set_alloc_tracking(true);
  Stats pose;
  std::int64_t pose_stray = 0;
  int pose_batches = 0;
  while (pose_batches < kMaxBatches) {
    pose = measure(frames, [&] {
      pose_out = mmhand::pose::predict_sample(model, sample);
    });
    ++pose_batches;
    if (pose.allocs == 0) break;
    pose_stray += pose.allocs;
  }
  mmhand::obs::set_alloc_tracking(false);

  // Served frames: one session of a manual-step server.  Each measured
  // call submits a frame that does not complete its window and steps
  // one feature pass over it; the completing frame and its batch run
  // with tracking off.  Two warm-up windows size the store free list,
  // the claim list and the scheduler's scratch.
  mmhand::serve::ServerOptions serve_opts;
  serve_opts.manual_step = true;
  mmhand::serve::Server server(mmhand::serve::ServeConfig{}, model,
                               serve_opts);
  const mmhand::serve::SessionId session = server.join().id;
  std::vector<mmhand::serve::WindowResult> results;
  const int window = pose_cfg.frames_per_sample();
  int filled = 0;
  const auto serve_frame = [&](const mmhand::radar::RadarCube& served_cube) {
    if (filled == window - 1) {
      const bool tracking = mmhand::obs::alloc_tracking_enabled();
      mmhand::obs::set_alloc_tracking(false);
      server.submit(session, served_cube);
      server.drain();
      results.clear();
      server.poll(session, &results);
      filled = 0;
      mmhand::obs::set_alloc_tracking(tracking);
    }
    server.submit(session, served_cube);
    server.step();
    ++filled;
  };
  for (int i = 0; i < 2 * window; ++i) serve_frame(cube);
  mmhand::obs::set_alloc_tracking(true);
  Stats served;
  std::int64_t serve_stray = 0;
  int serve_batches = 0;
  while (serve_batches < kMaxBatches) {
    served = measure(frames, [&] { serve_frame(cube); });
    ++serve_batches;
    if (served.allocs == 0) break;
    serve_stray += served.allocs;
  }
  // All-zero frames after the warm-up, with no settle batch: the first
  // such frame must already find the median's scratch large enough.
  mmhand::radar::RadarCube gap = cube;
  std::fill(gap.data().begin(), gap.data().end(), 0.0f);
  const Stats gapped = measure(frames, [&] { serve_frame(gap); });
  mmhand::obs::set_alloc_tracking(false);
  served.allocs += gapped.allocs;
  served.bytes += gapped.bytes;
  served.max_frame_allocs =
      std::max(served.max_frame_allocs, gapped.max_frame_allocs);
  const int served_frames = 2 * frames;

  const bool radar_clean = radar.allocs == 0;
  const bool pose_clean = pose.allocs == 0;
  const bool serve_clean = served.allocs == 0;
  const bool pass = radar_clean && pose_clean && serve_clean;

  if (json) {
    std::printf(
        "{\n"
        "  \"tool\": \"mmhand_purity_probe\",\n"
        "  \"isa\": \"%s\",\n"
        "  \"frames\": %d,\n"
        "  \"warmup\": %d,\n"
        "  \"radar\": {\"allocs\": %lld, \"bytes\": %lld,"
        " \"max_frame_allocs\": %lld, \"allocs_per_frame\": %.3f,"
        " \"settle_batches\": %d, \"stray_allocs\": %lld},\n"
        "  \"pose\": {\"allocs\": %lld, \"bytes\": %lld,"
        " \"max_frame_allocs\": %lld, \"allocs_per_frame\": %.3f,"
        " \"settle_batches\": %d, \"stray_allocs\": %lld},\n"
        "  \"serve\": {\"allocs\": %lld, \"bytes\": %lld,"
        " \"max_frame_allocs\": %lld, \"allocs_per_frame\": %.3f,"
        " \"settle_batches\": %d, \"stray_allocs\": %lld},\n"
        "  \"radar_clean\": %s,\n"
        "  \"pose_clean\": %s,\n"
        "  \"serve_clean\": %s,\n"
        "  \"pass\": %s\n"
        "}\n",
        mmhand::simd::isa_name(mmhand::simd::active_isa()), frames, warmup,
        static_cast<long long>(radar.allocs),
        static_cast<long long>(radar.bytes),
        static_cast<long long>(radar.max_frame_allocs),
        static_cast<double>(radar.allocs) / frames, batches,
        static_cast<long long>(stray),
        static_cast<long long>(pose.allocs),
        static_cast<long long>(pose.bytes),
        static_cast<long long>(pose.max_frame_allocs),
        static_cast<double>(pose.allocs) / frames, pose_batches,
        static_cast<long long>(pose_stray),
        static_cast<long long>(served.allocs),
        static_cast<long long>(served.bytes),
        static_cast<long long>(served.max_frame_allocs),
        static_cast<double>(served.allocs) / served_frames, serve_batches,
        static_cast<long long>(serve_stray),
        radar_clean ? "true" : "false", pose_clean ? "true" : "false",
        serve_clean ? "true" : "false", pass ? "true" : "false");
  } else {
    std::printf("isa: %s\n",
                mmhand::simd::isa_name(mmhand::simd::active_isa()));
    std::printf("radar: %lld alloc(s) over %d steady-state frame(s)"
                " (worst frame %lld; settled after %d batch(es),"
                " %lld stray warm-up alloc(s))\n",
                static_cast<long long>(radar.allocs), frames,
                static_cast<long long>(radar.max_frame_allocs), batches,
                static_cast<long long>(stray));
    std::printf("pose:  %lld alloc(s) over %d steady-state forward(s)"
                " (worst %lld; settled after %d batch(es), %lld stray"
                " warm-up alloc(s))\n",
                static_cast<long long>(pose.allocs), frames,
                static_cast<long long>(pose.max_frame_allocs), pose_batches,
                static_cast<long long>(pose_stray));
    std::printf("serve: %lld alloc(s) over %d served frame(s), half of"
                " them all-zero (worst %lld; settled after %d batch(es),"
                " %lld stray warm-up alloc(s))\n",
                static_cast<long long>(served.allocs), served_frames,
                static_cast<long long>(served.max_frame_allocs),
                serve_batches, static_cast<long long>(serve_stray));
    std::printf("%s\n", pass ? "PASS"
                              : "FAIL: steady-state radar frames, pose"
                                " forwards and served frames must not"
                                " allocate");
  }
  return pass ? 0 : 1;
}
