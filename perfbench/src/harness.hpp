#pragma once

// IF-frame -> pose + mesh serving benchmark: shared types.
//
// The harness plays radar clients against serve::Server through public
// calls only.  One ingress thread runs
// radar::RadarPipeline::process_frame_into on pre-generated IF frames,
// then Server::submit, then Server::poll; every delivered pose and mesh
// is compared bitwise against a reference computed at set-up.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mmhand/common/rng.hpp"
#include "mmhand/eval/experiment.hpp"
#include "mmhand/mesh/reconstruction.hpp"
#include "mmhand/radar/pipeline.hpp"
#include "mmhand/serve/server.hpp"

namespace perfbench {

using mmhand::nn::Tensor;

// ---------------------------------------------------------------- clock

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + system) in seconds.
double process_cpu_s();
/// CPU time the hypervisor gave to other guests, summed over all CPUs,
/// in seconds (the `steal` column of /proc/stat; 0 where unavailable).
double host_steal_s();
/// Current resident set size in bytes.
std::int64_t rss_bytes();

/// Linear-interpolated percentile (q in [0, 100]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

// ------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  int sessions = 0;
  double latency_limit_ms = 0.0;
  int pool_windows = 3;           ///< distinct windows per session pool
  mmhand::eval::ProtocolConfig protocol;  ///< chirp, DSP and network
  mmhand::serve::ServeConfig serve;

  int frames_per_window() const {
    return protocol.posenet.frames_per_sample();
  }
  int pool_frames() const { return pool_windows * frames_per_window(); }
  /// Whole-frame start offset of session s on the shared frame clock,
  /// spreading window completions evenly over the window period.
  int start_offset(int s) const {
    return s * frames_per_window() / sessions;
  }
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// ---------------------------------------------------------------- inputs

/// Random-init weights come from fixed seeds: every run measures the
/// same untrained model and reconstructor, and --seed varies only the
/// IF frames.  No training: timings depend on nothing else.
inline constexpr std::uint64_t kModelSeed = 2024;
inline constexpr std::uint64_t kMeshSeed = 11;

/// One session's pre-generated frame pool and its reference outputs.
/// Frames are submitted cyclically, so window seq n carries pool window
/// n % pool_windows.
struct SessionInputs {
  std::vector<mmhand::radar::IfFrame> frames;
  std::vector<Tensor> windows;  ///< normalized [S*st, V, D, A] per window
  std::vector<Tensor> ref_pose;  ///< HandJointRegressor::forward, [S, 63]
  std::vector<mmhand::mesh::ReconstructionResult> ref_mesh;
};

/// The reference stack: same configuration and seeds as the served one,
/// owned separately so reference and probe calls never touch the
/// server's model.
struct Reference {
  explicit Reference(const Workload& w);

  mmhand::radar::AntennaArray array;
  mmhand::radar::RadarPipeline pipeline;
  mmhand::Rng model_rng;
  mmhand::pose::HandJointRegressor model;
  mmhand::Rng mesh_rng;
  mmhand::mesh::MeshReconstructor mesh;
};

struct Inputs {
  std::vector<SessionInputs> sessions;
};

/// Generates every session's IF frames (hand::GestureScript ->
/// forward_kinematics -> sim::build_hand_scene -> radar::IfSimulator)
/// and the reference pose and mesh of every pool window.
Inputs make_inputs(const Workload& w, std::uint64_t seed, Reference& ref);

/// Bitwise equality of a delivered result with its reference.
bool same_pose(const Tensor& a, const Tensor& b);
bool same_mesh(const mmhand::mesh::ReconstructionResult& a,
               const mmhand::mesh::ReconstructionResult& b);

// ----------------------------------------------------------------- stack

/// Everything set-up builds: pipeline, model, reconstructor, server and
/// the joined sessions.  Non-movable: the server's scheduler thread
/// holds references to the model and reconstructor.
struct Stack {
  explicit Stack(const Workload& w);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  mmhand::radar::AntennaArray array;
  mmhand::radar::RadarPipeline pipeline;
  mmhand::Rng model_rng;
  mmhand::pose::HandJointRegressor model;
  mmhand::Rng mesh_rng;
  mmhand::mesh::MeshReconstructor mesh;
  mmhand::serve::Server server;  ///< last: its thread uses the above
  mmhand::radar::RadarCube cube;  ///< ingress staging, reused per frame
  std::vector<mmhand::serve::SessionId> ids;
  std::vector<std::int64_t> cursor;  ///< frames submitted per session
};

// ----------------------------------------------------------------- drive

/// One offered window, timed by the harness around each public call.
/// Times are steady_clock nanoseconds.
struct WindowRecord {
  int session = 0;
  std::uint64_t seq = 0;
  std::int64_t due_ns = 0;    ///< when the window's last frame was due
  std::int64_t dsp0_ns = 0;   ///< last frame: process_frame_into start
  std::int64_t dsp1_ns = 0;   ///< ... end (= submit start)
  std::int64_t sub1_ns = 0;   ///< ... submit end
  std::int64_t seen_ns = -1;  ///< poll returned the result; -1: never
  double server_ms = 0.0;     ///< WindowResult::e2e_ms (ready -> result)
  mmhand::serve::Disposition disposition =
      mmhand::serve::Disposition::kShed;
  bool mesh_done = false;
  bool matches = false;  ///< pose (and mesh) bitwise equal to reference

  double e2e_ms() const { return static_cast<double>(seen_ns - due_ns) / 1e6; }
};

struct PhaseResult {
  std::vector<WindowRecord> windows;  ///< offered during the interval
  std::vector<double> frame_wait_us;  ///< due -> process_frame_into start
  std::vector<double> frame_dsp_us;   ///< process_frame_into
  std::vector<double> frame_submit_us;  ///< Server::submit
  std::int64_t t0_ns = 0;
  double seconds = 0.0;         ///< measured interval
  double busy_wall_s = 0.0;     ///< interval plus the drain tail
  double cpu_s = 0.0;           ///< process CPU over busy_wall_s
  double steal_share = 0.0;     ///< host steal time / (wall * CPUs)
  std::int64_t rss_peak = 0;    ///< highest sampled RSS
  int max_ready_depth = 0;      ///< sampled after each window's submit
  mmhand::serve::ServerStats before, after;
  std::int64_t mismatches = 0;
};

/// Warm-up at the end of set-up: each session submits one whole window
/// (plus its start offset) back to back; results are drained, polled and
/// checked.  Returns the number of mismatching windows.
std::int64_t warm_up(const Workload& w, Stack& stack, const Inputs& in);

/// Runs the open loop for `seconds`, then drains.
PhaseResult drive(const Workload& w, Stack& stack, const Inputs& in,
                  double seconds);

// ---------------------------------------------------------------- probes

/// One served batch as seen in the trace (steady_clock nanoseconds).
struct BatchSpans {
  std::int64_t start_ns = 0, end_ns = 0;
  double spacenet_us = 0.0, lstm_us = 0.0, mesh_us = 0.0;
};

/// Reads the Chrome trace written by obs::write_trace and returns the
/// serve/forward_batch spans with their nested pose/nn/mesh spans.
/// `sync_steady_ns` is the steady_clock time of the
/// perfbench/clock_sync span, used to map trace time onto steady_clock.
std::vector<BatchSpans> read_batches(const std::string& path,
                                     std::int64_t sync_steady_ns);

struct ReplayResult {
  double conv2d_ms = 0, conv_transpose2d_ms = 0, attention_ms = 0,
         linear_ms = 0, lstm_ms = 0, relu_add_ms = 0;
  bool matches_model = false;  ///< replay output == model forward, bitwise
};

/// Replays the network's forward op by op with the public nn layers,
/// the exact shapes and the model's weights, on real normalized windows.
/// Times are per window (median over repetitions).
ReplayResult replay_ops(const Workload& w, const Inputs& in);

struct ScalingResult {
  double radar_us_1t = 0, radar_us_nt = 0;
  double pose_ms_1t = 0, pose_ms_nt = 0;
  int nproc = 1;
};

/// Times process_frame_into and forward_batch(B=1) at pool width 1 and
/// at one thread per hardware thread.
ScalingResult thread_scaling(Reference& ref, const Inputs& in);

}  // namespace perfbench
