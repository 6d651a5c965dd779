#pragma once

// Serving-layer configuration (MMHAND_SERVE=<spec>).
//
// The streaming server's overload behavior is entirely data-driven so a
// deployment can tune admission, deadlines, and shedding without a
// rebuild.  Spec grammar (comma-separated key=value pairs, any order):
//
//   MMHAND_SERVE="deadline_ms=50,max_sessions=32,queue_cap=4,policy=drop_oldest"
//
// Keys:
//   deadline_ms   per-window end-to-end deadline in milliseconds; a
//                 window still queued (or finishing) past its deadline
//                 is delivered as kDeadlineMissed (finite, in (0, 1e12])
//   max_sessions  admission watermark: join() beyond this is rejected
//                 with a RetryAfter hint (>= 1)
//   max_inflight  global cap on ready-plus-executing windows (>= 1)
//   queue_cap     per-session bound on queued ready windows (>= 1)
//   batch_max     max windows coalesced into one batched NN step (>= 1)
//   policy        load-shedding policy when a bound is hit:
//                 drop_oldest (evict the stalest queued window) or
//                 reject_new (refuse the incoming frame with RetryAfter)
//   shed_hi       queue-pressure fraction above which the degradation
//                 tier escalates (0..1, > shed_lo)
//   shed_lo       pressure below which the tier de-escalates (0..1)
//   hold          hysteresis: consecutive scheduler ticks the pressure
//                 must stay past a threshold before the tier moves
//                 (>= 1; prevents tier flapping)
//   retry_ms      base RetryAfter hint handed to rejected clients
//                 (finite, in (0, 1e12])
//   seed          u64 stream seed for client backoff jitter
//
// Unknown keys, malformed values and integers outside int range throw
// mmhand::Error at parse time, so typos fail loudly (same contract as
// MMHAND_FAULT).

#include <cstdint>
#include <string>

#include "mmhand/common/error.hpp"

namespace mmhand::serve {

/// What to do with new work when a queue bound is hit.
enum class ShedPolicy {
  kDropOldest,  ///< evict the stalest queued window, accept the new one
  kRejectNew,   ///< refuse the incoming frame with a RetryAfter hint
};

/// Graceful-degradation tiers, ordered by increasing shed severity.
/// The serving layer sits downstream of the DSP pipeline, so the
/// paper-style "reduce zoom-FFT resolution" knob lives with the client
/// that produces cubes; the server-side ladder degrades what it owns:
/// first the mesh stage, then window density.
enum class Tier {
  kFull = 0,   ///< pose + mesh reconstruction per window
  kNoMesh,     ///< pose only: mesh reconstruction skipped
  kPoseOnly,   ///< pose only at half window density (every other
               ///< window per session is shed before dispatch)
};
inline constexpr int kNumTiers = 3;

/// Stable display name of a tier ("full", "no_mesh", "pose_only").
const char* tier_name(Tier tier);

struct ServeConfig {
  double deadline_ms = 50.0;
  int max_sessions = 32;
  int max_inflight = 64;
  int queue_cap = 4;
  int batch_max = 8;
  ShedPolicy policy = ShedPolicy::kDropOldest;
  double shed_hi = 0.75;
  double shed_lo = 0.25;
  int hold_ticks = 3;
  double retry_ms = 5.0;
  std::uint64_t seed = 0x5E12;

  /// Throws mmhand::Error on out-of-range or inconsistent fields.
  void validate() const;
};

/// Parses the MMHAND_SERVE grammar; throws mmhand::Error on unknown
/// keys or malformed values.
ServeConfig parse_serve_spec(const std::string& text);

/// Config from the MMHAND_SERVE environment variable (defaults when
/// unset or empty).  Reads the environment on every call; the server
/// snapshots the config at construction.
ServeConfig config_from_env();

}  // namespace mmhand::serve
