#include "mmhand/obs/context.hpp"

#include "mmhand/obs/alloc.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>

#include "mmhand/common/parallel.hpp"
#include "mmhand/obs/event.hpp"
#include "mmhand/obs/flight.hpp"
#include "mmhand/obs/runlog.hpp"
#include "mmhand/obs/telemetry.hpp"
#include "mmhand/obs/trace.hpp"

namespace mmhand::obs {

namespace {

std::atomic<std::int64_t> g_frame_seq{0};
std::atomic<std::uint64_t> g_records_emitted{0};

/// Span site for pool workers' participation in a propagated region.
/// Marked as a flow target: its trace events carry the `ph:"f"` flow
/// binding that links the worker slice back to the frame span.
SpanSite& worker_site() {
  static SpanSite site{"parallel/worker", /*flow_target=*/true};
  return site;
}

void* worker_begin() {
  // No live context on the submitting thread, or observability off:
  // nothing to attribute, keep the region untouched.
  if (detail::current_frame_context() == nullptr) return nullptr;
  if (detail::mask() == 0) return nullptr;
  return new Span(worker_site());
}

void worker_end(void* token) { delete static_cast<Span*>(token); }

/// Builds the per-frame JSONL record from the accumulated stage vector.
std::string frame_record_json(const detail::FrameContext& ctx,
                              double total_us, std::int64_t allocs) {
  RunRecord rec("frame");
  rec.field("frame_id", static_cast<std::int64_t>(ctx.trace_id) - 1)
      .field("trace_id", static_cast<std::int64_t>(ctx.trace_id))
      .field("label", ctx.label)
      .field("total_us", total_us);
  // Allocation attribution needs the interposer switched on
  // (MMHAND_ALLOC_TRACK=1); without it the delta reads as zero, which
  // would be indistinguishable from a genuinely pure frame, so the
  // field is emitted only while tracking.
  if (allocs >= 0) rec.field("allocs", allocs);
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < ctx.stages.size(); ++i) {
    const auto& s = ctx.stages[i];
    os << (i == 0 ? "" : ", ") << '"' << detail::json_escape(s.name)
       << "\": {\"us\": "
       << detail::json_number(static_cast<double>(s.total_ns) / 1000.0)
       << ", \"count\": " << s.count << "}";
  }
  os << "}";
  rec.raw("stages", os.str());
  return rec.json();
}

}  // namespace

namespace detail {

void FrameContext::note_stage(const char* name, std::int64_t dur_ns) {
  std::lock_guard<std::mutex> lk(mu);
  for (StageAcc& s : stages) {
    if (s.name == name) {
      s.total_ns += dur_ns;
      ++s.count;
      return;
    }
  }
  stages.push_back({name, dur_ns, 1});
}

FrameContext* current_frame_context() {
  return static_cast<FrameContext*>(mmhand::task_context());
}

void context_install_hooks() {
  static std::once_flag once;
  std::call_once(once, [] {
    mmhand::WorkerObserver obs;
    obs.begin = worker_begin;
    obs.end = worker_end;
    mmhand::set_worker_observer(obs);
  });
}

}  // namespace detail

FrameScope::FrameScope(const char* label) {
  const int m = detail::mask();
  if (m == 0) return;
  auto* ctx = new detail::FrameContext();
  ctx->trace_id = static_cast<std::uint64_t>(
      g_frame_seq.fetch_add(1, std::memory_order_relaxed) + 1);
  ctx->label = label;
  ctx->records = (m & (detail::kTelemetryBit | detail::kFlightBit)) != 0;
  ctx->origin_tid = detail::thread_id();
  ctx->t0_ns = detail::now_ns();
  ctx->allocs0 = alloc_tracking_enabled() ? alloc_counts().allocs : -1;
  prev_ = mmhand::task_context();
  mmhand::set_task_context(ctx);
  ctx_ = ctx;
  if ((m & detail::kTraceBit) != 0) {
    detail::Event e = detail::make_event(detail::kEventFlowAnchor,
                                         detail::kNoName, ctx->t0_ns);
    e.trace_id = ctx->trace_id;
    detail::push_event(detail::kTraceBit, e);
  }
}

FrameScope::~FrameScope() {
  if (ctx_ == nullptr) return;
  mmhand::set_task_context(prev_);
  // The record goes to whichever sinks read it.  No further spans can
  // reach this context: safe to read unlocked.
  const detail::FrameContext& ctx = *ctx_;
  const int m = ctx.records ? detail::mask() : 0;
  const double total_us =
      static_cast<double>(detail::now_ns() - ctx.t0_ns) / 1000.0;
  if (ctx.records) g_records_emitted.fetch_add(1, std::memory_order_relaxed);
  if ((m & detail::kTelemetryBit) != 0) {
    // Process-wide counter, so concurrent frames each absorb the other's
    // allocations; the purity gate runs frames serially where the delta
    // is exact.
    const std::int64_t allocs =
        ctx.allocs0 >= 0 && alloc_tracking_enabled()
            ? alloc_counts().allocs - ctx.allocs0
            : -1;
    detail::telemetry_emit_record(frame_record_json(ctx, total_us, allocs));
  }
  if ((m & detail::kFlightBit) != 0) {
    const char* worst = "";
    std::int64_t worst_ns = -1;
    for (const auto& s : ctx.stages)
      if (s.total_ns > worst_ns) {
        worst_ns = s.total_ns;
        worst = s.name;
      }
    // Flight record text is one cache line minus the header (40 bytes):
    // keep the stage basename only so `worst=` survives; the telemetry
    // frame record carries the full label and stage names.
    if (const char* slash = std::strrchr(worst, '/')) worst = slash + 1;
    char line[128];
    std::snprintf(line, sizeof(line), "frame %" PRId64 " %.0fus worst=%s",
                  static_cast<std::int64_t>(ctx.trace_id) - 1, total_us,
                  worst);
    detail::flight_note_log(line);
  }
  delete ctx_;
}

std::uint64_t FrameScope::trace_id() const {
  return ctx_ != nullptr ? ctx_->trace_id : 0;
}

std::uint64_t current_trace_id() {
  const detail::FrameContext* ctx = detail::current_frame_context();
  return ctx != nullptr ? ctx->trace_id : 0;
}

std::uint64_t frame_records_emitted() {
  return g_records_emitted.load(std::memory_order_relaxed);
}

}  // namespace mmhand::obs
