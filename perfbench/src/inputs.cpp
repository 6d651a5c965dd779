// Workload definitions, seeded input generation, reference outputs and
// the set-up stack.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <numbers>
#include <thread>

#include "harness.hpp"
#include "mmhand/hand/gesture.hpp"
#include "mmhand/hand/hand_profile.hpp"
#include "mmhand/hand/kinematics.hpp"
#include "mmhand/mesh/hand_template.hpp"
#include "mmhand/pose/samples.hpp"
#include "mmhand/sim/scene.hpp"

namespace perfbench {

using namespace mmhand;

// ------------------------------------------------------------ utilities

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double host_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) /
                      static_cast<double>(sysconf(_SC_CLK_TCK))
                : 0.0;
}

std::int64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * sysconf(_SC_PAGESIZE) : 0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ------------------------------------------------------------ workloads

namespace {

Workload base_workload(const char* name) {
  Workload w;
  w.name = name;
  w.protocol = eval::ProtocolConfig::standard();
  // The server must deliver every window so each one is checked; the
  // harness applies the workload's latency limit itself.
  w.serve.deadline_ms = 10000.0;
  return w;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;

  Workload live = base_workload("live-paper");
  live.sessions = 4;
  live.latency_limit_ms = 100.0;
  out.push_back(live);

  Workload burst = base_workload("ingest-burst");
  burst.sessions = 8;
  burst.latency_limit_ms = 50.0;
  pose::PoseNetConfig& net = burst.protocol.posenet;
  net.spacenet.stem_channels = 4;
  net.spacenet.block1_channels = 6;
  net.spacenet.block2_channels = 6;
  net.feature_dim = 24;
  net.lstm_hidden = 16;
  out.push_back(burst);

  return out;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

// --------------------------------------------------------------- inputs

Reference::Reference(const Workload& w)
    : array(w.protocol.chirp),
      pipeline(w.protocol.chirp, array, w.protocol.pipeline),
      model_rng(kModelSeed),
      model(w.protocol.posenet, model_rng),
      mesh_rng(kMeshSeed),
      mesh(mesh::HandTemplate::create(hand::HandProfile::reference()),
           mesh_rng) {}

namespace {

/// One session's IF frame pool: a seeded gesture performance at a seeded
/// placement, rendered frame by frame exactly as sim::DatasetBuilder
/// does (without clutter).
std::vector<radar::IfFrame> session_frames(const Workload& w,
                                           const radar::AntennaArray& array,
                                           std::uint64_t seed, int s) {
  Rng rng(mix(seed, 100 + static_cast<std::uint64_t>(s)));
  Rng script_rng = rng.fork();
  Rng scene_rng = rng.fork();
  Rng noise_rng = rng.fork();
  const double dist = rng.uniform(0.22, 0.40);
  const double az = rng.uniform(-15.0, 15.0) * std::numbers::pi / 180.0;

  const radar::ChirpConfig& chirp = w.protocol.chirp;
  const double dt = chirp.frame_period_s;
  const int frames = w.pool_frames();
  hand::GestureScriptConfig script_config;
  script_config.base_wrist =
      Vec3{dist * std::sin(az), dist * std::cos(az), 0.0};
  const hand::GestureScript script(script_config, std::move(script_rng),
                                   frames * dt);
  const auto profile = hand::HandProfile::for_user(s % 10);
  const radar::IfSimulator sim(chirp, array);

  std::vector<radar::IfFrame> out;
  out.reserve(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    const double t = f * dt;
    const auto joints =
        hand::forward_kinematics(profile, script.pose_at(t));
    const auto prev = hand::forward_kinematics(
        profile, script.pose_at(std::max(0.0, t - dt)));
    const radar::Scene scene =
        sim::build_hand_scene(joints, prev, dt, sim::HandSceneConfig{},
                              scene_rng);
    out.push_back(sim.simulate_frame(scene, 0.0, noise_rng));
  }
  return out;
}

}  // namespace

Inputs make_inputs(const Workload& w, std::uint64_t seed, Reference& ref) {
  Inputs in;
  in.sessions.resize(static_cast<std::size_t>(w.sessions));

  // Frame synthesis is independent per session (own rng streams), so it
  // fans out over plain threads; the result does not depend on the split.
  const int workers = std::max(
      1, std::min(w.sessions,
                  static_cast<int>(std::thread::hardware_concurrency())));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  {
    std::vector<std::jthread> pool;
    for (int t = 0; t < workers; ++t)
      pool.emplace_back([&, t] {
        try {
          for (int s = t; s < w.sessions; s += workers)
            in.sessions[static_cast<std::size_t>(s)].frames =
                session_frames(w, ref.array, seed, s);
        } catch (...) {
          errors[static_cast<std::size_t>(t)] = std::current_exception();
        }
      });
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  const pose::PoseNetConfig& net = w.protocol.posenet;
  const int F = w.frames_per_window();
  const std::size_t frame_elems = static_cast<std::size_t>(
      net.velocity_bins * net.range_bins * net.angle_bins);
  radar::RadarCube cube;
  for (SessionInputs& si : in.sessions) {
    for (int k = 0; k < w.pool_windows; ++k) {
      Tensor x({F, net.velocity_bins, net.range_bins, net.angle_bins});
      for (int f = 0; f < F; ++f) {
        ref.pipeline.process_frame_into(
            si.frames[static_cast<std::size_t>(k * F + f)], &cube);
        pose::write_cube_frame(cube, net,
                               x.data() + static_cast<std::size_t>(f) *
                                              frame_elems);
      }
      Tensor pose = ref.model.forward(x, false);
      si.ref_mesh.push_back(ref.mesh.reconstruct(
          pose::row_to_joints(pose, net.sequence_segments - 1)));
      si.ref_pose.push_back(std::move(pose));
      si.windows.push_back(std::move(x));
    }
  }
  return in;
}

bool same_pose(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

bool same_mesh(const mesh::ReconstructionResult& a,
               const mesh::ReconstructionResult& b) {
  const auto same_bytes = [](const auto& x, const auto& y) {
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  };
  if (!same_bytes(a.beta, b.beta) || !same_bytes(a.theta, b.theta) ||
      !same_bytes(a.joints, b.joints))
    return false;
  return a.mesh.vertices.size() == b.mesh.vertices.size() &&
         std::memcmp(a.mesh.vertices.data(), b.mesh.vertices.data(),
                     a.mesh.vertices.size() * sizeof(Vec3)) == 0 &&
         a.mesh.faces == b.mesh.faces;
}

// ---------------------------------------------------------------- stack

Stack::Stack(const Workload& w)
    : array(w.protocol.chirp),
      pipeline(w.protocol.chirp, array, w.protocol.pipeline),
      model_rng(kModelSeed),
      model(w.protocol.posenet, model_rng),
      mesh_rng(kMeshSeed),
      mesh(mesh::HandTemplate::create(hand::HandProfile::reference()),
           mesh_rng),
      server(w.serve, model, serve::ServerOptions{.mesh = &mesh}) {
  for (int s = 0; s < w.sessions; ++s) {
    const serve::JoinResult j = server.join();
    MMHAND_CHECK(j.admitted, "session " << s << " was not admitted");
    ids.push_back(j.id);
  }
  cursor.assign(static_cast<std::size_t>(w.sessions), 0);
}

}  // namespace perfbench
