#pragma once

// Frame-scoped trace contexts: the causal link between a pipeline
// request (one radar frame through `radar::process_frame`, one
// inference segment through `pose::predict_recording`) and every span
// it spawns — including spans recorded on thread-pool workers.
//
//   {
//     MMHAND_SPAN("radar/process_frame");
//     obs::FrameScope frame("radar/process_frame");
//     ...stages...
//   }  // per-frame record emitted here
//
// A `FrameScope` allocates a process-unique 64-bit trace id, installs
// itself as the calling thread's current context, and propagates across
// `parallel_for` via the pool's task-context slot, so child spans on
// workers inherit the frame's identity.  While a context is live:
//
//   * every recorded span is tagged with the trace id (Chrome trace
//     `args`; `frame_id` is trace id − 1), and the trace gains flow
//     events (`ph:"s"` at the frame span, `ph:"f"` at each worker span)
//     that visually link cross-thread children to their parent frame;
//   * while the telemetry sampler or the flight recorder reads them,
//     per-stage durations accumulate into the context, and the scope's
//     destructor emits one per-frame record — frame_id, trace id, label,
//     total, and the per-stage latency vector — to the telemetry JSONL
//     stream (kind "frame") and the flight-recorder ring.
//
// Scopes nest (the inner scope wins, the outer is restored) and cost
// one relaxed atomic load when observability is fully off.  Contexts
// never touch the data the pipeline computes, so numeric outputs are
// bitwise identical with the layer on or off.

#include <cstdint>
#include <mutex>
#include <vector>

#include "mmhand/obs/state.hpp"

namespace mmhand::obs {

namespace detail {

/// Live state of one frame scope.  Stage accumulation is mutex-guarded:
/// worker threads append concurrently, but only a handful of times per
/// frame, so contention is negligible next to the stages themselves.
struct FrameContext {
  std::uint64_t trace_id = 0;
  const char* label = nullptr;
  bool records = false;  ///< telemetry or flight reads its record
  unsigned origin_tid = 0;
  std::int64_t t0_ns = 0;
  /// Allocation counter at frame start, -1 when tracking is off.
  std::int64_t allocs0 = -1;

  struct StageAcc {
    const char* name;
    std::int64_t total_ns;
    std::int64_t count;
  };
  std::mutex mu;
  std::vector<StageAcc> stages;

  void note_stage(const char* name, std::int64_t dur_ns);
};

/// The innermost live context on the calling thread (propagated to pool
/// workers for the duration of a region), or null.
FrameContext* current_frame_context();

}  // namespace detail

/// RAII frame scope; see the file comment.  Frame ids are one
/// process-wide sequence shared by all labels (trace id − 1).
class FrameScope {
 public:
  explicit FrameScope(const char* label);
  ~FrameScope();
  FrameScope(const FrameScope&) = delete;
  FrameScope& operator=(const FrameScope&) = delete;

  /// 0 when the scope is inactive (observability fully off).
  std::uint64_t trace_id() const;

 private:
  detail::FrameContext* ctx_ = nullptr;
  void* prev_ = nullptr;
};

/// Trace id of the calling thread's innermost live frame scope (0 when
/// none).  Works on pool workers inside a propagated region.
std::uint64_t current_trace_id();

/// Per-frame records emitted so far (frame scopes that completed while
/// the telemetry sampler or the flight recorder read them).
std::uint64_t frame_records_emitted();

}  // namespace mmhand::obs
