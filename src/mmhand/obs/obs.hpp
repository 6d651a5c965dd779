#pragma once

// Umbrella header for the observability layer: scoped trace spans
// (trace.hpp) and the crash flight recorder (flight.hpp), both stored
// as one per-thread ring of 64-byte event records (event.hpp), the
// metrics registry (metrics.hpp), leveled logging
// (log.hpp), JSONL run records (runlog.hpp), the numerical-health
// watchdog (numeric.hpp), the continuous-telemetry sampler
// (telemetry.hpp) with its latency budgets (budget.hpp), per-frame
// causal tracing (context.hpp), and hardware perf-counter spans
// (pmu.hpp).  Everything is controlled by environment variables
// resolved lazily on first use —
//
//   MMHAND_TRACE=<path>         capture spans, write Chrome trace JSON at exit
//   MMHAND_METRICS=<path>       record metrics, write a JSON snapshot at exit
//   MMHAND_LOG_LEVEL=<level>    silent|warn|info|debug (default info)
//   MMHAND_RUN_LOG=<path>       append training/eval run records as JSONL
//   MMHAND_NUMERIC_CHECK=<mode> off|warn|fatal NaN/Inf watchdog (default off)
//   MMHAND_TELEMETRY=<spec>     <interval_ms>[,out=PATH][,om=PATH]
//                               [,budgets=PATH] time-series sampler
//   MMHAND_FLIGHT=<spec>        <path>[,slots=N] crash flight recorder
//   MMHAND_PMU=1                attach perf_event hardware counters to spans
//                               (implies metrics; clock-only fallback when
//                               perf_event is unavailable)
//
// — or by the runtime setters, which win over the environment.  With
// everything off, every instrumentation point costs one relaxed atomic
// load; nothing allocates, formats, or takes a lock, and no numeric
// output ever depends on whether observability is enabled.

#include "mmhand/obs/budget.hpp"
#include "mmhand/obs/context.hpp"
#include "mmhand/obs/flight.hpp"
#include "mmhand/obs/log.hpp"
#include "mmhand/obs/metrics.hpp"
#include "mmhand/obs/numeric.hpp"
#include "mmhand/obs/pmu.hpp"
#include "mmhand/obs/runlog.hpp"
#include "mmhand/obs/telemetry.hpp"
#include "mmhand/obs/trace.hpp"
