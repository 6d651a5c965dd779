// Serving-layer bench: window throughput and end-to-end latency
// percentiles at 1/8/32 concurrent sessions, plus the shed rate under a
// 2x-overload burst.  Writes machine-readable results to
// BENCH_serve.json (or argv[1]) in the same shape as BENCH_throughput
// so scripts/check_bench.py can gate and trend it:
//
//   scripts/check_bench.py --current BENCH_serve.json
//       --baseline bench/baseline/BENCH_serve.baseline.json
//
// (one command, wrapped here for width)
//
// The `threads` column of results[] carries the SESSION count (the
// serving layer's scaling axis); every run drives the server with the
// same internal worker setup.  No faults are injected here — chaos
// belongs to mmhand_soak / check_serve.sh, the bench wants repeatable
// numbers.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mmhand/obs/obs.hpp"
#include "mmhand/pose/trainer.hpp"
#include "mmhand/serve/client.hpp"
#include "mmhand/serve/server.hpp"
#include "mmhand/simd/simd.hpp"
#include "mmhand/sim/dataset.hpp"

namespace {

using namespace mmhand;

pose::PoseNetConfig serve_net_config() {
  pose::PoseNetConfig cfg;
  cfg.segment_frames = 2;
  cfg.sequence_segments = 2;
  cfg.velocity_bins = 4;
  cfg.range_bins = 8;
  cfg.angle_bins = 8;
  cfg.feature_dim = 24;
  cfg.lstm_hidden = 16;
  cfg.spacenet.stem_channels = 4;
  cfg.spacenet.block1_channels = 6;
  cfg.spacenet.block2_channels = 6;
  return cfg;
}

sim::Recording serve_recording(int frames) {
  radar::ChirpConfig chirp;
  chirp.chirps_per_frame = 4;
  chirp.samples_per_chirp = 16;
  chirp.frame_period_s = 0.05;
  radar::PipelineConfig pc;
  pc.cube.range_bins = 8;
  pc.cube.azimuth_bins = 6;
  pc.cube.elevation_bins = 2;
  const sim::DatasetBuilder builder(chirp, pc);
  sim::ScenarioConfig scenario;
  scenario.duration_s = frames * chirp.frame_period_s;
  return builder.record(scenario);
}

struct RunResult {
  int sessions = 0;
  double windows_per_s = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double shed_rate = 0.0;
};

/// Drives `sessions` clients against a threaded server for `seconds`
/// of wall time at `frames_per_tick` frames per 1 ms client tick, then
/// drains and reports throughput + latency percentiles.
RunResult run_serve(pose::HandJointRegressor& model,
                    const sim::Recording& recording, int sessions,
                    double seconds, int frames_per_tick,
                    double deadline_ms) {
  obs::reset_metrics();
  serve::ServeConfig cfg;
  cfg.deadline_ms = deadline_ms;
  cfg.max_sessions = sessions;
  cfg.max_inflight = 64;
  cfg.queue_cap = 4;
  cfg.batch_max = 8;
  serve::Server server(cfg, model);

  std::vector<std::unique_ptr<serve::SimClient>> clients;
  clients.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    serve::ClientConfig cc;
    cc.frames_per_tick = frames_per_tick;
    cc.seed = 7 + static_cast<std::uint64_t>(s);
    clients.push_back(
        std::make_unique<serve::SimClient>(server, recording, cc));
  }

  const int drivers = std::max(1, std::min(4, sessions));
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < drivers; ++t) {
    pool.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int c = t; c < sessions; c += drivers)
          clients[static_cast<std::size_t>(c)]->tick();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(seconds * 1000)));
  stop.store(true);
  for (auto& th : pool) th.join();
  server.drain();
  const auto t1 = std::chrono::steady_clock::now();
  for (auto& c : clients) c->finish();

  const double wall_s =
      std::chrono::duration<double>(t1 - t0).count();
  const serve::ServerStats stats = server.stats();
  const obs::HistogramStats e2e = obs::histogram("serve/e2e").stats();

  RunResult r;
  r.sessions = sessions;
  r.windows_per_s =
      wall_s > 0.0 ? static_cast<double>(stats.windows_completed) / wall_s
                   : 0.0;
  r.p50_us = e2e.p50;
  r.p95_us = e2e.p95;
  r.p99_us = e2e.p99;
  const std::uint64_t offered = stats.windows_completed +
                                stats.windows_shed + stats.windows_missed;
  r.shed_rate = offered == 0
                    ? 0.0
                    : static_cast<double>(stats.windows_shed) /
                          static_cast<double>(offered);
  return r;
}

// --- provenance helpers (same fields as bench_throughput) -----------------

std::string read_line(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  char buf[256] = {0};
  const bool ok = std::fgets(buf, sizeof(buf), f) != nullptr;
  std::fclose(f);
  if (!ok) return {};
  std::string line(buf);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return line;
}

std::string json_safe(std::string s) {
  for (char& c : s)
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
      c = ' ';
  return s;
}

std::string git_head_sha() {
  const std::string head = read_line(".git/HEAD");
  if (head.rfind("ref: ", 0) == 0)
    return read_line(".git/" + head.substr(5));
  return head;
}

std::string host_name() {
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return {};
  return buf;
}

std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "rb");
  if (f == nullptr) return {};
  char buf[512];
  std::string model;
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    std::string line(buf);
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::size_t begin = colon + 1;
    while (begin < line.size() && line[begin] == ' ') ++begin;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
      line.pop_back();
    model = line.substr(begin);
    break;
  }
  std::fclose(f);
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";

  obs::set_metrics_enabled(true);
  const auto net = serve_net_config();
  Rng rng(41);
  pose::HandJointRegressor model(net, rng);
  const sim::Recording recording = serve_recording(24);

  const std::vector<int> session_counts = {1, 8, 32};
  std::vector<RunResult> runs;
  for (const int sessions : session_counts) {
    const RunResult r =
        run_serve(model, recording, sessions, 0.4, 1, 250.0);
    runs.push_back(r);
    std::printf(
        "%2d sessions  %8.1f windows/s  p50 %7.1f us  p95 %7.1f us  "
        "p99 %7.1f us\n",
        r.sessions, r.windows_per_s, r.p50_us, r.p95_us, r.p99_us);
  }

  // Overload probe: 8 sessions offering 2x the steady frame rate into a
  // tight deadline/queue.  On a fast host the tiny model may absorb it
  // (shed rate 0); the number is recorded either way so a host that
  // starts shedding shows up in the trend.
  const RunResult overload =
      run_serve(model, recording, 8, 0.4, 2, 25.0);
  std::printf("2x overload  shed rate %.4f (completed %0.1f windows/s)\n",
              overload.shed_rate, overload.windows_per_s);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"serve\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %d,\n",
               static_cast<int>(std::thread::hardware_concurrency()));
  std::fprintf(
      f,
      "  \"provenance\": {\"git_sha\": \"%s\", \"hostname\": \"%s\", "
      "\"cpu_model\": \"%s\"},\n",
      json_safe(git_head_sha()).c_str(), json_safe(host_name()).c_str(),
      json_safe(cpu_model()).c_str());
  std::fprintf(f, "  \"simd\": \"%s\",\n",
               simd::isa_name(simd::active_isa()));
  // check_bench.py reads results[] generically; here the `threads`
  // column carries the session count (the serving scaling axis).
  std::fprintf(f, "  \"threads_column\": \"sessions\",\n");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    const double window_ms =
        r.windows_per_s > 0.0 ? 1000.0 / r.windows_per_s : 0.0;
    std::fprintf(f,
                 "    {\"op\": \"serve_window\", \"threads\": %d, "
                 "\"ms\": %.4f},\n",
                 r.sessions, window_ms);
    std::fprintf(f,
                 "    {\"op\": \"serve_e2e_p50\", \"threads\": %d, "
                 "\"ms\": %.4f},\n",
                 r.sessions, r.p50_us / 1000.0);
    std::fprintf(f,
                 "    {\"op\": \"serve_e2e_p95\", \"threads\": %d, "
                 "\"ms\": %.4f},\n",
                 r.sessions, r.p95_us / 1000.0);
    std::fprintf(f,
                 "    {\"op\": \"serve_e2e_p99\", \"threads\": %d, "
                 "\"ms\": %.4f}%s\n",
                 r.sessions, r.p99_us / 1000.0,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"throughput\": {\n");
  for (std::size_t i = 0; i < runs.size(); ++i)
    std::fprintf(f, "    \"sessions_%d\": %.1f%s\n", runs[i].sessions,
                 runs[i].windows_per_s, i + 1 < runs.size() ? "," : "");
  std::fprintf(f,
               "  },\n  \"overload_2x\": {\"sessions\": 8, "
               "\"shed_rate\": %.4f, \"windows_per_s\": %.1f}\n}\n",
               overload.shed_rate, overload.windows_per_s);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
