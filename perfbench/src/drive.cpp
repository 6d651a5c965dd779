// The radar clients: one ingress thread that turns IF frames into cubes,
// submits them, and polls results, in an open loop: frames are due on a
// shared frame clock whether or not earlier results are back.

#include <algorithm>
#include <thread>
#include <unordered_map>

#include "harness.hpp"
#include "mmhand/obs/trace.hpp"

namespace perfbench {

using namespace mmhand;

namespace {

constexpr std::int64_t kMs = 1000000;
/// Idle polling cadence between due frames.
constexpr std::int64_t kPollSleepNs = 200000;
/// RSS sampling cadence.
constexpr std::int64_t kRssEveryNs = 50 * kMs;
/// Longest wait for the windows still in flight when the interval ends.
constexpr std::int64_t kDrainTimeoutNs = 10000 * kMs;

class Ingress {
 public:
  Ingress(const Workload& w, Stack& stack, const Inputs& in,
          PhaseResult* out)
      : w_(w),
        st_(stack),
        in_(in),
        out_(*out),
        frames_per_window_(w.frames_per_window()),
        open_(static_cast<std::size_t>(w.sessions)) {}

  /// DSP + submit of session s's next pool frame, due at `due_ns`.
  void submit_frame(int s, std::int64_t due_ns) {
    const auto si = static_cast<std::size_t>(s);
    const auto& frames = in_.sessions[si].frames;
    const radar::IfFrame& frame =
        frames[static_cast<std::size_t>(st_.cursor[si]) % frames.size()];
    const std::int64_t t0 = now_ns();
    st_.pipeline.process_frame_into(frame, &st_.cube);
    const std::int64_t t1 = now_ns();
    serve::SubmitResult r;
    {
      MMHAND_SPAN("perfbench/submit");
      r = st_.server.submit(st_.ids[si], st_.cube);
    }
    const std::int64_t t2 = now_ns();
    MMHAND_CHECK(r.accepted, "frame of session " << s << " was rejected");
    ++st_.cursor[si];
    out_.frame_wait_us.push_back(static_cast<double>(t0 - due_ns) / 1e3);
    out_.frame_dsp_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    out_.frame_submit_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    if (st_.cursor[si] % frames_per_window_ != 0) return;

    WindowRecord rec;
    rec.session = s;
    rec.seq = static_cast<std::uint64_t>(st_.cursor[si] /
                                         frames_per_window_) -
              1;
    rec.due_ns = due_ns;
    rec.dsp0_ns = t0;
    rec.dsp1_ns = t1;
    rec.sub1_ns = t2;
    open_[si].emplace(rec.seq, out_.windows.size());
    out_.windows.push_back(rec);
    ++outstanding_;
    out_.max_ready_depth =
        std::max(out_.max_ready_depth, st_.server.stats().ready_depth);
  }

  /// Polls every session once; records and checks each delivered result.
  void poll_all() {
    for (int s = 0; s < w_.sessions; ++s) {
      const auto si = static_cast<std::size_t>(s);
      results_.clear();
      if (st_.server.poll(st_.ids[si], &results_) == 0) continue;
      const std::int64_t t = now_ns();
      for (const serve::WindowResult& r : results_) {
        const auto it = open_[si].find(r.seq);
        MMHAND_CHECK(it != open_[si].end(),
                     "unexpected result seq " << r.seq << " for session "
                                              << s);
        WindowRecord& rec = out_.windows[it->second];
        open_[si].erase(it);
        --outstanding_;
        rec.seen_ns = t;
        rec.server_ms = r.e2e_ms;
        rec.disposition = r.disposition;
        rec.mesh_done = r.mesh_done;
        // Shed windows, and windows that expired while queued, carry no
        // pose; they count as failed, not as wrong.
        if (r.pose.empty()) continue;
        const SessionInputs& ref = in_.sessions[si];
        const std::size_t k = r.seq % ref.ref_pose.size();
        rec.matches = same_pose(r.pose, ref.ref_pose[k]) &&
                      (!r.mesh_done || same_mesh(r.mesh, ref.ref_mesh[k]));
        if (!rec.matches) ++out_.mismatches;
      }
    }
    const std::int64_t t = now_ns();
    if (t >= next_rss_ns_) {
      out_.rss_peak = std::max(out_.rss_peak, rss_bytes());
      next_rss_ns_ = t + kRssEveryNs;
    }
  }

  /// Polls until `t_ns`, sleeping between rounds.
  void idle_until(std::int64_t t_ns) {
    while (true) {
      poll_all();
      const std::int64_t left = t_ns - now_ns();
      if (left <= 0) return;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min(left, kPollSleepNs)));
    }
  }

  /// Polls until every offered window has resolved, then drains the
  /// server so nothing is left in flight for the next phase.
  void finish() {
    const std::int64_t give_up = now_ns() + kDrainTimeoutNs;
    while (outstanding_ > 0 && now_ns() < give_up) {
      poll_all();
      std::this_thread::sleep_for(std::chrono::nanoseconds(kPollSleepNs));
    }
    st_.server.drain();
    poll_all();
  }

  void open_loop(double seconds) {
    const auto period = static_cast<std::int64_t>(
        w_.protocol.chirp.frame_period_s * 1e9);
    const auto ticks = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(seconds * 1e9) / period);
    const std::int64_t t0 = out_.t0_ns;
    interval_end_ns_ = t0 + ticks * period;
    for (std::int64_t k = 0; k < ticks; ++k) {
      const std::int64_t due = t0 + k * period;
      idle_until(due);
      for (int s = 0; s < w_.sessions; ++s) {
        submit_frame(s, due);
        poll_all();
      }
    }
    idle_until(interval_end_ns_);
  }

 private:
  const Workload& w_;
  Stack& st_;
  const Inputs& in_;
  PhaseResult& out_;
  const int frames_per_window_;
  /// Per session: seq -> index into out_.windows of unresolved windows.
  std::vector<std::unordered_map<std::uint64_t, std::size_t>> open_;
  std::vector<serve::WindowResult> results_;
  std::int64_t outstanding_ = 0;
  std::int64_t interval_end_ns_ = 0;
  std::int64_t next_rss_ns_ = 0;
};

}  // namespace

std::int64_t warm_up(const Workload& w, Stack& stack, const Inputs& in) {
  PhaseResult scratch;
  Ingress ingress(w, stack, in, &scratch);
  for (int s = 0; s < w.sessions; ++s)
    for (int f = 0; f < w.frames_per_window() + w.start_offset(s); ++f)
      ingress.submit_frame(s, now_ns());
  ingress.finish();
  for (const WindowRecord& r : scratch.windows)
    MMHAND_CHECK(r.seen_ns >= 0 &&
                     r.disposition == serve::Disposition::kCompleted,
                 "warm-up window of session " << r.session
                                              << " was not completed");
  return scratch.mismatches;
}

PhaseResult drive(const Workload& w, Stack& stack, const Inputs& in,
                  double seconds) {
  PhaseResult out;
  const std::size_t frames_hint = static_cast<std::size_t>(
      (seconds / w.protocol.chirp.frame_period_s + 16) * w.sessions * 2);
  out.frame_wait_us.reserve(frames_hint);
  out.frame_dsp_us.reserve(frames_hint);
  out.frame_submit_us.reserve(frames_hint);
  out.windows.reserve(frames_hint / 4);
  out.seconds = seconds;
  out.rss_peak = rss_bytes();
  out.before = stack.server.stats();

  Ingress ingress(w, stack, in, &out);
  const double cpu0 = process_cpu_s();
  const double steal0 = host_steal_s();
  const std::int64_t t_start = now_ns();
  out.t0_ns = now_ns() + 2 * kMs;
  ingress.open_loop(seconds);
  ingress.finish();
  out.busy_wall_s = static_cast<double>(now_ns() - t_start) / 1e9;
  out.cpu_s = process_cpu_s() - cpu0;
  out.steal_share = (host_steal_s() - steal0) /
                    (out.busy_wall_s * std::thread::hardware_concurrency());
  out.after = stack.server.stats();
  out.rss_peak = std::max(out.rss_peak, rss_bytes());
  return out;
}

}  // namespace perfbench
