// mmhand_top — live view over the continuous-telemetry stream and the
// crash flight recorder:
//
//   mmhand_top TELEMETRY.jsonl [--last N] [--follow]
//       summarize the newest N sampler intervals (default 30): per-stage
//       rates, windowed p50/p95/p99 latency with a p95 sparkline,
//       counter rates, fault-injection activity, and budget breaches.
//       --follow re-reads and redraws once a second (Ctrl-C to stop),
//       waiting for the file if it does not exist yet.
//   mmhand_top TELEMETRY.jsonl --serve
//       serving-plane view over the same stream: serve/* counters and
//       gauges (live sessions, queue depth, inflight, degradation tier)
//       plus the cross-session and per-session e2e latency histograms.
//   mmhand_top TELEMETRY.jsonl --tail
//       tail-latency attribution over the per-frame records a closing
//       FrameScope appends to the same stream: total-latency p50/p95/p99
//       per frame label, plus which stage dominates the p95+ frames.
//   mmhand_top --flight RING
//       render a binary flight-recorder ring file (e.g. the artifact a
//       SIGKILLed run leaves behind) as human-readable per-thread event
//       history with in-flight spans.
//
// A torn final JSONL line (killed writer) is benign and skipped;
// unparseable *interior* lines are reported but never fatal.  Parsing
// and rendering live in tools/top/top_core.* so tests can drive them.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "mmhand/obs/flight.hpp"
#include "top/top_core.hpp"

namespace {

int usage(bool error) {
  std::fprintf(error ? stderr : stdout,
               "usage: mmhand_top TELEMETRY.jsonl [--last N] [--follow] "
               "[--tail] [--serve]\n       mmhand_top --flight RING\n");
  return error ? 2 : 0;
}

/// One render pass.  Missing file is an error in one-shot mode but just
/// "not yet" under --follow (the writer may not have started).
int render_once(const std::string& path, std::size_t last, bool tail,
                bool serve, bool follow, bool clear_screen) {
  mmhand::top::ParsedStream stream;
  std::string error;
  if (!mmhand::top::load_jsonl(path, &stream, &error)) {
    if (!follow) {
      std::fprintf(stderr, "mmhand_top: %s\n", error.c_str());
      return 1;
    }
    if (clear_screen) std::printf("\x1b[2J\x1b[H");
    std::printf("%s: waiting for stream...\n", path.c_str());
    return 0;
  }
  const std::string body =
      serve ? mmhand::top::render_serve(stream, path, last)
      : tail ? mmhand::top::render_tail(stream, path)
             : mmhand::top::render_intervals(stream, path, last);
  if (clear_screen) std::printf("\x1b[2J\x1b[H");
  if (body.empty()) {
    std::printf("%s: no %s records yet\n", path.c_str(),
                serve ? "serve/*" : tail ? "per-frame" : "telemetry interval");
    return 0;
  }
  std::fwrite(body.data(), 1, body.size(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonl_path, flight_path;
  std::size_t last = 30;
  bool follow = false;
  bool tail = false;
  bool serve = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--flight") {
      if (i + 1 < argc) flight_path = argv[++i];
    } else if (arg == "--last") {
      if (i + 1 < argc)
        last = static_cast<std::size_t>(std::max(1, std::atoi(argv[++i])));
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg == "--tail") {
      tail = true;
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg.rfind("-", 0) != 0 && jsonl_path.empty()) {
      jsonl_path = arg;
    } else {
      return usage(!(arg == "-h" || arg == "--help"));
    }
  }

  if (!flight_path.empty()) {
    std::string error;
    const std::string rendered =
        mmhand::obs::flight_render_file(flight_path, &error);
    if (rendered.empty()) {
      std::fprintf(stderr, "mmhand_top: %s\n", error.c_str());
      return 1;
    }
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
    return 0;
  }
  if (jsonl_path.empty()) return usage(true);
  if (!follow)
    return render_once(jsonl_path, last, tail, serve, false, false);
  for (;;) {
    const int rc = render_once(jsonl_path, last, tail, serve, true, true);
    if (rc != 0) return rc;
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(1));
  }
}
