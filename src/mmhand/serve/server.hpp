#pragma once

// Streaming multi-session inference server.
//
// Many concurrent clients stream radar cube frames; the server
// assembles each session's frames into non-overlapping pose windows
// (exactly the `make_pose_samples` convention, so a drained server is
// bitwise identical to the offline pipeline), coalesces ready windows
// across sessions into one batched network step
// (`HandJointRegressor::forward_batch`), and degrades gracefully under
// overload instead of collapsing:
//
//   - admission control: at most max_sessions concurrent sessions and
//     max_inflight queued windows; excess joins/frames are refused
//     with a RetryAfter hint;
//   - bounded queues: each session holds at most queue_cap ready
//     windows; overflow is shed per the configured policy
//     (drop-oldest or reject-new), so memory is bounded by
//     construction;
//   - deadlines: a window unresolved past deadline_ms is delivered as
//     kDeadlineMissed rather than serving stale poses;
//   - degradation tiers: sustained queue pressure above shed_hi for
//     hold consecutive scheduler ticks escalates kFull -> kNoMesh ->
//     kPoseOnly (half window density); sustained pressure below
//     shed_lo de-escalates.  The hold hysteresis prevents flapping.
//
// Fairness: ready windows dispatch strictly oldest-first across
// sessions (one global FIFO), so no session can be starved while the
// server makes progress.
//
// Per-frame feature cache: mmSpaceNet sees each frame on its own, so
// while no window is ready the scheduler computes the spatial features
// of frames that have arrived in still-filling windows
// (`HandJointRegressor::frame_features`).  A completed window then runs
// mmSpaceNet only over its frames without features (usually the last
// one) before the segment/LSTM head and the mesh.  A frame's features
// are bitwise the same in any pass, so results do not change.  Windows
// store raw cube frames: submit is a copy, and the scheduler normalizes
// each frame (pose::normalize_cube_frame) just before it runs
// mmSpaceNet on it, outside the lock, in calls just large enough to fan
// out over the pool (one frame at pool width 1).  Both the idle-time
// pass and a batch read frames from, and write feature rows to, the
// window stores in place; no frame or row is copied under the lock.
//
// Threading: one mutex guards all queue state; the NN work runs
// outside the lock (only the scheduler executes it).  A window's frame
// and feature storage moves, never copies, from its session to the
// ready queue to the scheduler, and recycles through a free list under
// the same mutex; a session holds none between windows.  A store the
// running feature pass reads is never refilled before the pass ends: a
// window that completes meanwhile queues with it (the pass's rows land
// there), and a store recycled meanwhile (leave, shed, kPoseOnly drop)
// is parked until the pass ends.  At pool width 1 the scheduler moves
// off a CPU it keeps sharing with the thread that submits frames
// (DESIGN §13 "Placement").  With Options.manual_step the server runs
// no thread and tests drive `step()` with an injected clock for full
// determinism.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include <condition_variable>
#include <mutex>

#include "mmhand/mesh/reconstruction.hpp"
#include "mmhand/pose/joint_model.hpp"
#include "mmhand/serve/config.hpp"

namespace mmhand::serve {

using SessionId = std::uint64_t;

/// Terminal disposition of one pose window.
enum class Disposition {
  kCompleted = 0,   ///< pose delivered within deadline
  kShed,            ///< dropped by load shedding / tier degradation
  kDeadlineMissed,  ///< resolved after its deadline (stale)
};

/// One resolved window, delivered via poll().
struct WindowResult {
  std::uint64_t seq = 0;  ///< per-session window index (0, 1, ...)
  Disposition disposition = Disposition::kCompleted;
  Tier tier = Tier::kFull;   ///< tier the window was served at
  nn::Tensor pose;           ///< [S, 63] joints (completed windows)
  bool mesh_done = false;    ///< mesh reconstructed (kFull tier only)
  mesh::ReconstructionResult mesh;  ///< valid when mesh_done
  double e2e_ms = 0.0;       ///< window-ready -> resolution latency
  int first_frame = 0;       ///< first recording frame of the window
  int last_frame = 0;        ///< last recording frame of the window
};

struct JoinResult {
  bool admitted = false;
  SessionId id = 0;           ///< valid when admitted
  double retry_after_ms = 0.0;  ///< backoff hint when refused
};

struct SubmitResult {
  bool accepted = false;
  bool session_unknown = false;  ///< id never joined or already left
  double retry_after_ms = 0.0;   ///< backoff hint when rejected
};

/// Monotonic counters and instantaneous state, snapshotted under the
/// server lock.
struct ServerStats {
  std::uint64_t sessions_admitted = 0;
  std::uint64_t sessions_rejected = 0;
  std::uint64_t sessions_left = 0;
  std::uint64_t frames_accepted = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t windows_completed = 0;
  std::uint64_t windows_shed = 0;
  std::uint64_t windows_missed = 0;     ///< deadline missed
  std::uint64_t degraded_drops = 0;     ///< shed by the kPoseOnly tier
  std::uint64_t batches = 0;
  std::uint64_t max_ready_depth = 0;    ///< high-water mark (bound proof)
  /// Frames whose mmSpaceNet features an idle-time pass computed.
  std::uint64_t frames_featured_early = 0;
  /// Frames whose features a batch step computed (a window's missing
  /// frames when it runs).
  std::uint64_t frames_featured_in_batch = 0;
  /// Early frames whose window became ready while their pass read them;
  /// the pass wrote their features into the queued window's store.
  std::uint64_t frames_attached_late = 0;
  int live_sessions = 0;
  int ready_depth = 0;
  int inflight = 0;
  Tier tier = Tier::kFull;
};

/// Injectable monotonic clock (nanoseconds).  Tests install a fake.
using ClockFn = std::uint64_t (*)();

struct ServerOptions {
  bool manual_step = false;  ///< no scheduler thread; tests call step()
  ClockFn clock = nullptr;   ///< defaults to steady_clock
  /// Trained reconstructor for the kFull tier; nullptr serves
  /// pose-only at every tier.
  mesh::MeshReconstructor* mesh = nullptr;
};

class Server {
 public:
  using Options = ServerOptions;

  /// The model reference must outlive the server.  Only the scheduler
  /// (or the single step() caller in manual mode) runs the model.
  Server(const ServeConfig& config, pose::HandJointRegressor& model,
         Options options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admission control.  Session ids are unique for the life of the
  /// server (a churned client that rejoins gets a fresh id).
  JoinResult join();

  /// Ends a session: its queued windows and undelivered results are
  /// discarded.  Unknown ids are ignored (idempotent).
  void leave(SessionId id);

  /// Streams one radar cube frame into a session's current window: the
  /// raw cells are copied, normalization happens on the scheduler.
  /// When the frame completes a window, the window enters the ready
  /// queue (or is shed per policy if bounds are hit).
  SubmitResult submit(SessionId id, const radar::RadarCube& cube);

  /// Moves all resolved windows for a session into `out` (appended in
  /// resolution order).  Returns the number delivered.
  std::size_t poll(SessionId id, std::vector<WindowResult>* out);

  /// One scheduler pass: expire deadlines, run the tier state machine,
  /// then do one unit of NN work.  Ready windows take priority: up to
  /// batch_max of them run as one batch (mmSpaceNet over their frames
  /// without cached features, then the segment/LSTM head and the mesh).
  /// With no window ready, the pass instead computes the features of up
  /// to one window's worth of frames that arrived in still-filling
  /// windows, across sessions, and caches them.  Returns the number of
  /// windows resolved (0 for a feature pass).  Called internally by the
  /// scheduler thread; call it directly only with Options.manual_step.
  int step();

  /// Blocks until every queued and inflight window is resolved.  In
  /// manual mode this steps inline.
  void drain();

  Tier tier() const;
  ServerStats stats() const;
  const ServeConfig& config() const { return config_; }

 private:
  /// One window's frame storage and the features computed so far.
  /// Plain vectors rather than pooled tensors: the storage moves from
  /// the submitting thread's session to the scheduler, so it recycles
  /// through the server's free list, not a thread-local tensor pool.
  struct WindowStore {
    std::vector<float> frames;    ///< [S*st, V, D, A] raw cube frames
    std::vector<float> features;  ///< [S*st, frame_feature_numel]
    int featured = 0;  ///< leading frames whose features are set or
                       ///< claimed by the running feature pass
    std::uint64_t pass = 0;  ///< stamp of the last pass that claimed frames
    int pass_frames = 0;     ///< how many frames that pass claimed
  };

  struct ReadyWindow {
    SessionId session = 0;
    std::uint64_t seq = 0;
    std::uint64_t ready_ns = 0;
    std::uint64_t deadline_ns = 0;
    int first_frame = 0;
    int last_frame = 0;
    WindowStore store;  ///< moved from the session, never copied
  };

  struct Session {
    SessionId id = 0;
    int frames_filled = 0;       ///< partial-window fill level
    int first_frame = 0;         ///< recording index of the fill start
    int next_frame = 0;          ///< frames submitted so far
    std::uint64_t next_seq = 0;  ///< seq of the filling window
    int queued = 0;              ///< this session's ready-queue share
    bool drop_toggle = false;    ///< kPoseOnly half-density alternator
    WindowStore store;  ///< the filling window; empty between windows
    std::vector<WindowResult> delivered;
  };

  std::uint64_t now_ns() const;
  double pressure_locked() const;
  void tier_tick_locked();
  /// Removes ready_[index] from the queue and its session's share.
  ReadyWindow dequeue_locked(std::size_t index);
  /// Resolves `w`: completes `result` with the window's seq and frames
  /// and the given outcome, recycles the store, counts the outcome and
  /// delivers the result to the session unless it left.
  void finish_locked(ReadyWindow& w, Disposition disposition, Tier tier,
                     double e2e_ms, WindowResult result = {});
  void scheduler_loop();
  int expire_deadlines_locked(std::uint64_t now);
  WindowStore take_store_locked();
  void recycle_locked(WindowStore store);
  bool features_pending_locked() const;
  /// Stages up to one window of frames of the filling sessions' stores
  /// into raw_frames_ / feature_rows_ for an idle-time pass and stamps
  /// those stores with pass_.  False when no frame is pending.
  bool claim_features_locked();
  /// Appends frames [first, end) of `frames` and their rows of `rows`
  /// to raw_frames_ / feature_rows_.
  void stage_frames(const float* frames, float* rows, int first, int end);
  /// mmSpaceNet features of the raw cube frames staged in raw_frames_,
  /// each written to the matching feature_rows_ entry
  /// (frame_feature_numel floats), outside the lock.  Frames are
  /// normalized (pose::normalize_cube_frame) into a staging tensor and
  /// run `fan_out_indices()` at a time: enough for the convolutions'
  /// per-frame `parallel_for` to use every pool thread, and one frame
  /// at pool width 1.  The activations, with the buffers the
  /// scheduler's tensor pool keeps, stay that many frames' size however
  /// many frames are pending.  A frame's features are the same bits in
  /// any pass.
  void features_of() const;
  int run_batch(Tier tier);

  const ServeConfig config_;
  pose::HandJointRegressor& model_;
  const Options options_;
  const int frames_per_window_;
  const std::size_t frame_elems_;
  const std::size_t feature_elems_;  ///< floats of one frame's features

  mutable std::mutex mu_;
  std::condition_variable work_cv_;    ///< signals the scheduler
  std::condition_variable drain_cv_;   ///< signals drain() waiters
  std::unordered_map<SessionId, std::unique_ptr<Session>> sessions_;
  std::deque<ReadyWindow> ready_;      ///< global FIFO across sessions
  SessionId next_id_ = 1;
  int inflight_ = 0;
  bool stop_ = false;
  Tier tier_ = Tier::kFull;
  int hi_streak_ = 0;
  int lo_streak_ = 0;
  ServerStats stats_;
  std::vector<WindowStore> free_stores_;  ///< recycled window storage
  /// Recycled stores the running feature pass still reads.
  std::vector<WindowStore> parked_;
  /// Stamp of the running (or next) feature pass; a store carries it
  /// exactly while that pass reads the store.
  std::uint64_t pass_ = 1;
  std::atomic<int> submit_cpu_{-1};  ///< CPU of the latest submit's caller

  // Scheduler-only scratch (the step() caller owns it; capacity kept).
  std::vector<ReadyWindow> batch_;
  std::vector<WindowResult> results_;  ///< batch_'s, built before the lock
  std::vector<const float*> raw_frames_;  ///< features_of's input frames
  std::vector<float*> feature_rows_;      ///< and their feature rows

  std::thread scheduler_;  ///< absent under Options.manual_step
};

}  // namespace mmhand::serve
