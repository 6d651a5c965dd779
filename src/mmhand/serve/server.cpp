#include "mmhand/serve/server.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <string>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "mmhand/common/parallel.hpp"
#include "mmhand/obs/obs.hpp"
#include "mmhand/pose/samples.hpp"

namespace mmhand::serve {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU the calling thread runs on, or -1 where the platform cannot say.
int current_cpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

/// Moves the calling thread off `cpu`: leaving `cpu` out of the
/// thread's affinity mask makes the kernel migrate it, and restoring the
/// mask at once leaves it free to run anywhere again.  A no-op when
/// `cpu` is the only CPU the thread may use.
void move_off_cpu(int cpu) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (cpu < 0 || cpu >= CPU_SETSIZE ||
      pthread_getaffinity_np(pthread_self(), sizeof allowed, &allowed) != 0 ||
      CPU_COUNT(&allowed) < 2 || !CPU_ISSET(cpu, &allowed))
    return;
  cpu_set_t others = allowed;
  CPU_CLR(cpu, &others);
  pthread_setaffinity_np(pthread_self(), sizeof others, &others);
  pthread_setaffinity_np(pthread_self(), sizeof allowed, &allowed);
#else
  (void)cpu;
#endif
}

/// Scheduler steps in a row on the latest submitter's CPU before the
/// scheduler moves off it, and the least time between two moves.  One
/// ingress thread and the scheduler stay apart after one move.
constexpr int kSharedCpuSteps = 8;
constexpr std::uint64_t kMoveGapNs = 1000000000;

/// Per-session latency histograms, folded onto a bounded set of slots
/// so session churn cannot grow the metrics registry without bound.
constexpr int kSessionSlots = 32;

obs::Histogram& slot_histogram(SessionId id) {
  static std::array<obs::Histogram*, kSessionSlots> slots = [] {
    std::array<obs::Histogram*, kSessionSlots> a{};
    for (int i = 0; i < kSessionSlots; ++i) {
      a[static_cast<std::size_t>(i)] = &obs::histogram(
          "serve/e2e/s" + std::to_string(i / 10) + std::to_string(i % 10));
    }
    return a;
  }();
  return *slots[id % kSessionSlots];
}

struct ServeCounters {
  obs::Counter& admitted = obs::counter("serve/admitted");
  obs::Counter& rejected = obs::counter("serve/rejected");
  obs::Counter& shed = obs::counter("serve/shed");
  obs::Counter& deadline_missed = obs::counter("serve/deadline_missed");
  obs::Counter& degraded = obs::counter("serve/degraded");
  obs::Counter& completed = obs::counter("serve/completed");
  obs::Counter& batches = obs::counter("serve/batches");
  obs::Gauge& sessions = obs::gauge("serve/sessions");
  obs::Gauge& queue_depth = obs::gauge("serve/queue_depth");
  obs::Gauge& inflight = obs::gauge("serve/inflight");
  obs::Gauge& tier = obs::gauge("serve/tier");
  obs::Histogram& e2e = obs::histogram("serve/e2e");
};

ServeCounters& counters() {
  static ServeCounters c;
  return c;
}

}  // namespace

Server::Server(const ServeConfig& config, pose::HandJointRegressor& model,
               Options options)
    : config_([&] {
        config.validate();
        return config;
      }()),
      model_(model),
      options_(options),
      frames_per_window_(model.config().frames_per_sample()),
      frame_elems_(static_cast<std::size_t>(model.config().velocity_bins) *
                   static_cast<std::size_t>(model.config().range_bins) *
                   static_cast<std::size_t>(model.config().angle_bins)),
      feature_elems_(static_cast<std::size_t>(model.frame_feature_numel())) {
  // Serving mode is steady-state by definition: with the tensor pool
  // on, every per-batch activation tensor recycles a parked buffer, so
  // the batched NN step settles to zero allocations (gated by
  // mmhand_purity_probe).  The pool is process-global and sticky —
  // values are unchanged either way.
  nn::set_tensor_pool_enabled(true);
  if (!options_.manual_step)
    scheduler_ = std::thread([this] { scheduler_loop(); });
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
}

std::uint64_t Server::now_ns() const {
  return options_.clock != nullptr ? options_.clock() : steady_now_ns();
}

double Server::pressure_locked() const {
  const std::size_t capacity =
      std::max<std::size_t>(1, sessions_.size() *
                                   static_cast<std::size_t>(config_.queue_cap));
  return static_cast<double>(ready_.size()) / static_cast<double>(capacity);
}

JoinResult Server::join() {
  std::lock_guard<std::mutex> lk(mu_);
  if (static_cast<int>(sessions_.size()) >= config_.max_sessions) {
    ++stats_.sessions_rejected;
    if (obs::metrics_enabled()) counters().rejected.add(1);
    return {false, 0, config_.retry_ms * (1.0 + pressure_locked())};
  }
  auto session = std::make_unique<Session>();
  session->id = next_id_++;
  const SessionId id = session->id;
  sessions_.emplace(id, std::move(session));
  ++stats_.sessions_admitted;
  if (obs::metrics_enabled()) {
    counters().admitted.add(1);
    counters().sessions.set(static_cast<double>(sessions_.size()));
  }
  return {true, id, 0.0};
}

void Server::leave(SessionId id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  // Abandon the session's queued windows: nobody is left to poll them.
  // A store the running feature pass still reads stays parked until the
  // pass ends (recycle_locked).
  for (ReadyWindow& w : ready_)
    if (w.session == id) recycle_locked(std::move(w.store));
  ready_.erase(std::remove_if(ready_.begin(), ready_.end(),
                              [id](const ReadyWindow& w) {
                                return w.session == id;
                              }),
               ready_.end());
  recycle_locked(std::move(it->second->store));
  sessions_.erase(it);
  ++stats_.sessions_left;
  if (obs::metrics_enabled())
    counters().sessions.set(static_cast<double>(sessions_.size()));
}

Server::ReadyWindow Server::dequeue_locked(std::size_t index) {
  ReadyWindow w = std::move(ready_[index]);
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(index));
  auto it = sessions_.find(w.session);
  if (it != sessions_.end()) --it->second->queued;
  return w;
}

void Server::finish_locked(ReadyWindow& w, Disposition disposition,
                           Tier tier, double e2e_ms, WindowResult result) {
  result.seq = w.seq;
  result.disposition = disposition;
  result.tier = tier;
  result.e2e_ms = e2e_ms;
  result.first_frame = w.first_frame;
  result.last_frame = w.last_frame;
  recycle_locked(std::move(w.store));
  switch (disposition) {
    case Disposition::kCompleted:
      ++stats_.windows_completed;
      if (obs::metrics_enabled()) counters().completed.add(1);
      break;
    case Disposition::kShed:
      ++stats_.windows_shed;
      if (obs::metrics_enabled()) counters().shed.add(1);
      break;
    case Disposition::kDeadlineMissed:
      ++stats_.windows_missed;
      if (obs::metrics_enabled()) counters().deadline_missed.add(1);
      break;
  }
  auto it = sessions_.find(w.session);
  const bool live = it != sessions_.end();  // false once the session left
  if (disposition != Disposition::kShed && obs::metrics_enabled()) {
    const double us = e2e_ms * 1000.0;
    counters().e2e.record(us);
    if (live) slot_histogram(w.session).record(us);
  }
  if (live) it->second->delivered.push_back(std::move(result));
}

Server::WindowStore Server::take_store_locked() {
  if (!free_stores_.empty()) {
    WindowStore store = std::move(free_stores_.back());
    free_stores_.pop_back();
    return store;
  }
  WindowStore store;
  store.frames.resize(static_cast<std::size_t>(frames_per_window_) *
                      frame_elems_);
  store.features.resize(static_cast<std::size_t>(frames_per_window_) *
                        feature_elems_);
  return store;
}

void Server::recycle_locked(WindowStore store) {
  // Every store is held by a filling session, a queued or running
  // window, the running feature pass or the free list, so the list
  // never outgrows the most ever in use.  A session between windows
  // holds none.
  if (store.frames.empty()) return;
  store.featured = 0;
  // The running feature pass still reads the store's frames and writes
  // its feature rows: no one may refill it before the pass ends.
  (store.pass == pass_ ? parked_ : free_stores_).push_back(std::move(store));
}

SubmitResult Server::submit(SessionId id, const radar::RadarCube& cube) {
  submit_cpu_.store(current_cpu(), std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return {false, true, 0.0};
  Session& s = *it->second;

  const bool completes = s.frames_filled + 1 == frames_per_window_;
  const bool session_full = s.queued >= config_.queue_cap;
  const bool global_full =
      static_cast<int>(ready_.size()) + inflight_ >= config_.max_inflight;
  if (completes && (session_full || global_full) &&
      config_.policy == ShedPolicy::kRejectNew) {
    ++stats_.frames_rejected;
    if (obs::metrics_enabled()) counters().rejected.add(1);
    return {false, false, config_.retry_ms * (1.0 + pressure_locked())};
  }

  // The raw cells only: the scheduler normalizes a frame just before it
  // runs mmSpaceNet on it, outside the lock.
  pose::check_cube_dims(cube, model_.config());
  if (s.frames_filled == 0) {
    s.first_frame = s.next_frame;
    // A session takes its store with a window's first frame, not when
    // the last one completes, so a burst of completing windows does
    // not hold a store per session while the scheduler catches up.
    if (s.store.frames.empty()) s.store = take_store_locked();
  }
  std::copy(cube.data().begin(), cube.data().end(),
            s.store.frames.data() +
                static_cast<std::size_t>(s.frames_filled) * frame_elems_);
  ++s.frames_filled;
  ++s.next_frame;
  ++stats_.frames_accepted;
  if (!completes) {
    work_cv_.notify_one();  // a frame for the feature pass
    return {true, false, 0.0};
  }

  // A full window.  Under the kPoseOnly tier every other window per
  // session is shed before it ever queues (half window density); its
  // store recycles and the session takes one with its next frame.
  s.frames_filled = 0;
  ReadyWindow w;
  w.session = id;
  w.seq = s.next_seq++;
  w.first_frame = s.first_frame;
  w.last_frame = s.next_frame - 1;
  w.store = std::exchange(s.store, {});
  if (tier_ == Tier::kPoseOnly) {
    s.drop_toggle = !s.drop_toggle;
    if (s.drop_toggle) {
      ++stats_.degraded_drops;
      if (obs::metrics_enabled()) counters().degraded.add(1);
      finish_locked(w, Disposition::kShed, tier_, 0.0);
      return {true, false, 0.0};
    }
  }

  // Bounds: shed the stalest queued window (own session first, then the
  // global head) to make room under kDropOldest.
  if (session_full || global_full) {
    std::size_t victim = ready_.size();
    if (session_full) {
      for (std::size_t i = 0; i < ready_.size(); ++i)
        if (ready_[i].session == id) {
          victim = i;
          break;
        }
    }
    if (victim == ready_.size() && !ready_.empty()) victim = 0;
    if (victim < ready_.size()) {
      ReadyWindow shed = dequeue_locked(victim);
      finish_locked(shed, Disposition::kShed, tier_, 0.0);
    }
  }

  w.ready_ns = now_ns();
  w.deadline_ns =
      w.ready_ns + static_cast<std::uint64_t>(config_.deadline_ms * 1e6);
  // The running feature pass writes the rows of the frames it reads
  // straight into the store, wherever the window is when it ends.
  if (w.store.pass == pass_)
    stats_.frames_attached_late +=
        static_cast<std::uint64_t>(w.store.pass_frames);
  ready_.push_back(std::move(w));
  ++s.queued;
  stats_.max_ready_depth =
      std::max<std::uint64_t>(stats_.max_ready_depth, ready_.size());
  if (obs::metrics_enabled())
    counters().queue_depth.set(static_cast<double>(ready_.size()));
  work_cv_.notify_one();
  return {true, false, 0.0};
}

std::size_t Server::poll(SessionId id, std::vector<WindowResult>* out) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return 0;
  Session& s = *it->second;
  const std::size_t n = s.delivered.size();
  if (out != nullptr)
    for (auto& r : s.delivered) out->push_back(std::move(r));
  s.delivered.clear();
  return n;
}

void Server::tier_tick_locked() {
  const double p = pressure_locked();
  if (p > config_.shed_hi) {
    ++hi_streak_;
    lo_streak_ = 0;
    if (hi_streak_ >= config_.hold_ticks && tier_ != Tier::kPoseOnly) {
      tier_ = static_cast<Tier>(static_cast<int>(tier_) + 1);
      hi_streak_ = 0;
    }
  } else if (p < config_.shed_lo) {
    ++lo_streak_;
    hi_streak_ = 0;
    if (lo_streak_ >= config_.hold_ticks && tier_ != Tier::kFull) {
      tier_ = static_cast<Tier>(static_cast<int>(tier_) - 1);
      lo_streak_ = 0;
    }
  } else {
    hi_streak_ = 0;
    lo_streak_ = 0;
  }
  if (obs::metrics_enabled()) {
    counters().tier.set(static_cast<double>(tier_));
    counters().queue_depth.set(static_cast<double>(ready_.size()));
    counters().inflight.set(static_cast<double>(inflight_));
  }
}

int Server::expire_deadlines_locked(std::uint64_t now) {
  int expired = 0;
  // Windows enter in ready order and share one deadline offset, so the
  // expired set is always a prefix of the FIFO.
  while (!ready_.empty() && ready_.front().deadline_ns <= now) {
    ReadyWindow w = dequeue_locked(0);
    finish_locked(w, Disposition::kDeadlineMissed, tier_,
                  static_cast<double>(now - w.ready_ns) / 1e6);
    ++expired;
  }
  return expired;
}

bool Server::features_pending_locked() const {
  for (const auto& entry : sessions_)
    if (entry.second->store.featured < entry.second->frames_filled)
      return true;
  return false;
}

bool Server::claim_features_locked() {
  // One window's worth of frames at most, so a window that completes
  // meanwhile waits at most one window's mmSpaceNet.  The pass reads
  // each frame from, and writes its row to, the session's store.
  raw_frames_.clear();
  feature_rows_.clear();
  for (const auto& entry : sessions_) {
    WindowStore& store = entry.second->store;
    const int count =
        std::min(entry.second->frames_filled - store.featured,
                 frames_per_window_ - static_cast<int>(raw_frames_.size()));
    if (count <= 0) continue;
    stage_frames(store.frames.data(), store.features.data(), store.featured,
                 store.featured + count);
    store.featured += count;
    store.pass = pass_;
    store.pass_frames = count;
    if (static_cast<int>(raw_frames_.size()) == frames_per_window_) break;
  }
  stats_.frames_featured_early += raw_frames_.size();
  return !raw_frames_.empty();
}

int Server::step() {
  Tier batch_tier = Tier::kFull;
  int resolved = 0;
  bool pass = false;  // a feature pass claimed frames
  {
    std::lock_guard<std::mutex> lk(mu_);
    const std::uint64_t now = now_ns();
    tier_tick_locked();
    resolved += expire_deadlines_locked(now);
    const int take = std::min<int>(config_.batch_max,
                                   static_cast<int>(ready_.size()));
    batch_.clear();
    for (int i = 0; i < take; ++i) batch_.push_back(dequeue_locked(0));
    inflight_ += static_cast<int>(batch_.size());
    batch_tier = tier_;
    if (batch_.empty()) pass = claim_features_locked();
  }
  if (!batch_.empty()) {
    resolved += run_batch(batch_tier);
  } else if (pass) {
    // Idle time: features of frames in still-filling windows.
    {
      obs::FrameScope frame("serve/frame_features");
      MMHAND_SPAN("serve/frame_features");
      features_of();
    }
    // The pass ends: no store carries the next stamp until a pass
    // claims frames, and the stores parked meanwhile are free.
    std::lock_guard<std::mutex> lk(mu_);
    ++pass_;
    for (WindowStore& store : parked_)
      free_stores_.push_back(std::move(store));
    parked_.clear();
  }
  if (resolved > 0) drain_cv_.notify_all();
  return resolved;
}

void Server::stage_frames(const float* frames, float* rows, int first,
                          int end) {
  for (int f = first; f < end; ++f) {
    raw_frames_.push_back(frames + static_cast<std::size_t>(f) * frame_elems_);
    feature_rows_.push_back(rows +
                            static_cast<std::size_t>(f) * feature_elems_);
  }
}

void Server::features_of() const {
  const auto& pc = model_.config();
  const int count = static_cast<int>(raw_frames_.size());
  const int chunk = static_cast<int>(
      std::min<std::int64_t>(std::max(count, 1), fan_out_indices()));
  for (int first = 0; first < count; first += chunk) {
    const int n = std::min(chunk, count - first);
    nn::Tensor frames({n, pc.velocity_bins, pc.range_bins, pc.angle_bins});
    for (int f = 0; f < n; ++f) {
      float* dst = frames.data() + static_cast<std::size_t>(f) * frame_elems_;
      const float* src = raw_frames_[static_cast<std::size_t>(first + f)];
      std::copy(src, src + frame_elems_, dst);
      pose::normalize_cube_frame(pc, dst);
    }
    const nn::Tensor features = model_.frame_features(frames);
    for (int f = 0; f < n; ++f) {
      const float* row =
          features.data() + static_cast<std::size_t>(f) * feature_elems_;
      std::copy(row, row + feature_elems_,
                feature_rows_[static_cast<std::size_t>(first + f)]);
    }
  }
}

int Server::run_batch(Tier batch_tier) {
  // The NN step runs outside the lock: submissions keep landing while
  // the model executes.  batch_ and results_ are the scheduler's own.
  const int b_count = static_cast<int>(batch_.size());
  const auto& pc = model_.config();
  const int segments = pc.sequence_segments;
  const bool with_mesh = batch_tier == Tier::kFull && options_.mesh != nullptr;
  results_.clear();
  results_.resize(batch_.size());
  {
    obs::FrameScope frame("serve/batch");
    MMHAND_SPAN("serve/forward_batch");
    // mmSpaceNet over the frames without cached features (usually each
    // window's last frame only), read from and written to the batch's
    // own stores.
    raw_frames_.clear();
    feature_rows_.clear();
    for (ReadyWindow& w : batch_) {
      stage_frames(w.store.frames.data(), w.store.features.data(),
                   w.store.featured, frames_per_window_);
      w.store.featured = frames_per_window_;
    }
    features_of();
    nn::Tensor features({b_count * frames_per_window_,
                         static_cast<int>(feature_elems_)});
    float* dst = features.data();
    for (const ReadyWindow& w : batch_)
      dst = std::copy(w.store.features.begin(), w.store.features.end(), dst);
    const nn::Tensor out =
        model_.forward_from_features(std::move(features), b_count);
    // The pose leaves for the polling thread, so it takes an exact-size
    // heap buffer, not one from the scheduler's tensor pool: the pool
    // hands out the smallest parked buffer that fits, often a whole
    // activation, which would then park on the poller's list.
    const std::size_t pose_floats = static_cast<std::size_t>(segments) * 63;
    for (std::size_t b = 0; b < results_.size(); ++b) {
      const float* rows = out.data() + b * pose_floats;
      results_[b].pose = nn::Tensor::from_vector(
          {segments, 63}, std::vector<float>(rows, rows + pose_floats));
    }
    if (with_mesh) {
      MMHAND_SPAN("serve/mesh");
      for (int b = 0; b < b_count; ++b)
        results_[static_cast<std::size_t>(b)].mesh =
            options_.mesh->reconstruct(
                pose::row_to_joints(out, (b + 1) * segments - 1));
    }
  }

  const std::uint64_t done = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t b = 0; b < batch_.size(); ++b) {
    ReadyWindow& w = batch_[b];
    results_[b].mesh_done = with_mesh;
    finish_locked(w,
                  done > w.deadline_ns ? Disposition::kDeadlineMissed
                                       : Disposition::kCompleted,
                  batch_tier, static_cast<double>(done - w.ready_ns) / 1e6,
                  std::move(results_[b]));
  }
  batch_.clear();
  inflight_ -= b_count;
  ++stats_.batches;
  stats_.frames_featured_in_batch += raw_frames_.size();
  if (obs::metrics_enabled()) counters().batches.add(1);
  return b_count;
}

void Server::drain() {
  if (options_.manual_step) {
    while (true) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (ready_.empty() && inflight_ == 0) return;
      }
      step();
    }
  }
  std::unique_lock<std::mutex> lk(mu_);
  work_cv_.notify_all();
  drain_cv_.wait(lk, [this] { return ready_.empty() && inflight_ == 0; });
}

void Server::scheduler_loop() {
  // At pool width 1 the scheduler runs all NN work on its own thread.
  // The ingress thread and the scheduler both work in bursts on the
  // frame clock, so on one CPU they take turns: a completed window
  // waits for the ingress burst to end, and its result for the
  // scheduler's.  Linux can keep the pair on one CPU for a whole run
  // while others idle, so the scheduler moves off a CPU it keeps
  // sharing with the thread that submits frames.  With a wider pool
  // the NN work fans out over every CPU anyway, and moving the
  // scheduler only disturbed it (bench_serve's p50 rose).
  int shared_steps = 0;
  std::uint64_t next_move_ns = 0;
  while (true) {
    const int cpu = current_cpu();
    const bool shared =
        num_threads() == 1 && cpu >= 0 &&
        cpu == submit_cpu_.load(std::memory_order_relaxed);
    shared_steps = shared ? shared_steps + 1 : 0;
    if (shared_steps == kSharedCpuSteps) {
      const std::uint64_t now = steady_now_ns();
      if (now >= next_move_ns) {
        move_off_cpu(cpu);
        next_move_ns = now + kMoveGapNs;
      }
      shared_steps = 0;
    }
    step();
    std::unique_lock<std::mutex> lk(mu_);
    if (stop_) break;
    if (ready_.empty() && !features_pending_locked()) {
      // Idle.  Below full tier, keep ticking so the tier recovers; at
      // full tier nothing changes until submit(), drain() or the
      // destructor notifies, so a timed wake-up only costs CPU.
      if (tier_ == Tier::kFull)
        work_cv_.wait(lk);
      else
        work_cv_.wait_for(lk, std::chrono::microseconds(200));
    }
  }
}

Tier Server::tier() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tier_;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServerStats s = stats_;
  s.live_sessions = static_cast<int>(sessions_.size());
  s.ready_depth = static_cast<int>(ready_.size());
  s.inflight = inflight_;
  s.tier = tier_;
  return s;
}

}  // namespace mmhand::serve
