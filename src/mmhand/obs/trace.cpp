#include "mmhand/obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <unordered_map>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

#include "mmhand/obs/context.hpp"
#include "mmhand/obs/event.hpp"
#include "mmhand/obs/log.hpp"
#include "mmhand/obs/metrics.hpp"
#include "mmhand/obs/runlog.hpp"

namespace mmhand::obs {

namespace {

/// Events per trace ring: the newest 2^20 spans (begin + end) of each
/// thread.  Pages are touched only as events land in them.
constexpr std::uint64_t kTraceSlots = std::uint64_t{1} << 21;

std::atomic<std::uint64_t*> g_trace_rings[detail::kMaxRings];

/// Reserves ring `slot` (racing reservers keep the first).  Null when
/// the address space is exhausted, or on a platform without anonymous
/// mappings; the event is then not recorded.
std::uint64_t* reserve_trace_ring(std::atomic<std::uint64_t*>& slot) {
#if defined(__unix__) || defined(__APPLE__)
  const std::size_t bytes = detail::ring_bytes(kTraceSlots);
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) return nullptr;
  auto* fresh = static_cast<std::uint64_t*>(mem);
  std::uint64_t* expected = nullptr;
  if (slot.compare_exchange_strong(expected, fresh,
                                   std::memory_order_acq_rel))
    return fresh;
  ::munmap(mem, bytes);
  return expected;
#else
  (void)slot;
  return nullptr;
#endif
}

detail::Ring trace_ring(unsigned tid) {
  std::atomic<std::uint64_t*>& slot = g_trace_rings[tid % detail::kMaxRings];
  std::uint64_t* words = slot.load(std::memory_order_acquire);
  if (words == nullptr) words = reserve_trace_ring(slot);
  return {words, kTraceSlots};
}

}  // namespace

void set_tracing_enabled(bool on) {
  detail::set_mask_bit(detail::kTraceBit, on);
}

void set_trace_path(const std::string& path) {
  detail::set_trace_path(path);
}

std::uint32_t SpanSite::id() {
  std::uint32_t v = id_.load(std::memory_order_acquire);
  if (v == 0) {
    // kNoName + 1 wraps to 0: a full table leaves the site unresolved.
    const std::uint32_t fresh = detail::intern_name(name_) + 1;
    v = id_.compare_exchange_strong(v, fresh, std::memory_order_acq_rel)
            ? fresh
            : v;
  }
  return v - 1;
}

Histogram& SpanSite::hist() {
  Histogram* h = hist_.load(std::memory_order_acquire);
  if (h == nullptr) {
    h = &histogram(name_);
    hist_.store(h, std::memory_order_release);
  }
  return *h;
}

namespace detail {

void push_event(int mask, const Event& e) {
  if ((mask & kTraceBit) != 0) {
    const Ring ring = trace_ring(thread_id());
    if (ring.words != nullptr) ring_push(ring, e);
  }
  if ((mask & kFlightBit) != 0) flight_push(e);
}

void span_begin(SpanSite& site, std::int64_t t_ns, int mask) {
  push_event(mask, make_event(kEventBegin, site.id(), t_ns));
}

void record_span(SpanSite& site, std::int64_t t0_ns, std::int64_t t1_ns,
                 int mask, const PmuReading& pmu_begin) {
  FrameContext* ctx = current_frame_context();
  if ((mask & (kTraceBit | kFlightBit)) != 0) {
    Event e = make_event(kEventEnd, site.id(), t1_ns);
    if (ctx != nullptr) {
      e.trace_id = ctx->trace_id;
      if (site.flow_target() && thread_id() != ctx->origin_tid)
        e.flags = kEventFlowTarget;
    }
    push_event(mask, e);
  }
  if ((mask & kMetricsBit) != 0)
    site.hist().record(static_cast<double>(t1_ns - t0_ns) / 1000.0);
  if ((mask & kPmuBit) != 0) pmu_accumulate(site, pmu_begin);
  if (ctx != nullptr && ctx->records)
    ctx->note_stage(site.name(), t1_ns - t0_ns);
}

}  // namespace detail

bool write_trace() {
  const std::string path = detail::trace_path();
  if (path.empty()) {
    MMHAND_WARN("write_trace: no trace path configured "
                "(MMHAND_TRACE or set_trace_path)");
    return false;
  }
  return write_trace(path);
}

bool write_trace(const std::string& path) {
  struct Row {
    detail::Event e;  ///< a flow anchor, or an end moved to its begin's t
    std::int64_t dur_ns;
  };
  std::vector<Row> rows;
  std::uint64_t lost = 0;
  for (std::atomic<std::uint64_t*>& slot : g_trace_rings) {
    const detail::Ring ring{slot.load(std::memory_order_acquire),
                            kTraceSlots};
    if (ring.words == nullptr) continue;
    const detail::RingWindow window = detail::ring_window(ring);
    lost += window.lost;
    // Spans nest per thread (RAII), so one stack of open begins per tid
    // pairs every end.  An end with no matching begin lost its begin to
    // an overwrite or a clear; a begin left open is a span still running.
    std::unordered_map<unsigned, std::vector<detail::Event>> open;
    detail::ring_read(ring, window, [&](const detail::Event* e) {
      if (e == nullptr) return;
      if (e->kind == detail::kEventBegin) open[e->tid].push_back(*e);
      if (e->kind == detail::kEventFlowAnchor) rows.push_back({*e, 0});
      if (e->kind != detail::kEventEnd) return;
      std::vector<detail::Event>& stack = open[e->tid];
      const auto begin = std::find_if(
          stack.rbegin(), stack.rend(),
          [&](const detail::Event& b) { return b.site == e->site; });
      if (begin == stack.rend()) return;
      rows.push_back({*e, e->t_ns - begin->t_ns});
      rows.back().e.t_ns = begin->t_ns;
      stack.erase(std::next(begin).base(), stack.end());
    });
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.e.t_ns < b.e.t_ns;
  });

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    MMHAND_WARN("cannot write trace to %s", path.c_str());
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  bool first = true;
  const auto sep = [&] {
    const char* s = first ? "" : ",";
    first = false;
    return s;
  };
  for (const Row& row : rows) {
    const detail::Event& e = row.e;
    // Frame-context tagging: every span recorded under a live context
    // carries the trace/frame ids (a frame's id is its trace id − 1) so
    // slices are attributable per frame.
    char args[96] = "";
    if (e.trace_id != 0)
      std::snprintf(args, sizeof(args),
                    ", \"args\": {\"trace_id\": %llu, \"frame_id\": %lld}",
                    static_cast<unsigned long long>(e.trace_id),
                    static_cast<long long>(e.trace_id) - 1);
    char where[64];
    std::snprintf(where, sizeof(where),
                  "\"pid\": 1, \"tid\": %u, \"ts\": %lld.%03lld",
                  static_cast<unsigned>(e.tid),
                  static_cast<long long>(e.t_ns / 1000),
                  static_cast<long long>(e.t_ns % 1000));
    // Flow events: one `s` anchor per frame context (inside the frame
    // span on its origin thread), one `f` per cross-thread child slice.
    // Viewers match them by (cat, name, id), drawing an arrow from the
    // frame slice to each worker slice.
    const unsigned long long id = e.trace_id;
    if (e.kind == detail::kEventFlowAnchor) {
      std::fprintf(f,
                   "%s\n{\"name\": \"frame\", \"cat\": \"mmhand_flow\", "
                   "\"ph\": \"s\", \"id\": %llu, %s%s}",
                   sep(), id, where, args);
      continue;
    }
    const char* name = detail::name_of(e.site);
    std::fprintf(
        f,
        "%s\n{\"name\": \"%s\", \"cat\": \"mmhand\", \"ph\": \"X\", "
        "%s, \"dur\": %lld.%03lld%s}",
        sep(), detail::json_escape(name != nullptr ? name : "?").c_str(),
        where, static_cast<long long>(row.dur_ns / 1000),
        static_cast<long long>(row.dur_ns % 1000), args);
    if ((e.flags & detail::kEventFlowTarget) != 0)
      std::fprintf(f,
                   ",\n{\"name\": \"frame\", \"cat\": \"mmhand_flow\", "
                   "\"ph\": \"f\", \"bp\": \"e\", \"id\": %llu, %s%s}",
                   id, where, args);
  }
  std::fprintf(f, "\n]}\n");
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    MMHAND_WARN("writing trace to %s failed", path.c_str());
    return false;
  }
  if (lost > 0)
    MMHAND_WARN("trace %s is incomplete: %llu older events were "
                "overwritten at the per-thread ring cap (the newest are "
                "kept)",
                path.c_str(), static_cast<unsigned long long>(lost));
  MMHAND_DEBUG("wrote %zu rows to %s", rows.size(), path.c_str());
  return true;
}

void clear_trace() {
  for (std::atomic<std::uint64_t*>& slot : g_trace_rings)
    if (std::uint64_t* words = slot.load(std::memory_order_acquire))
      detail::ring_clear({words, kTraceSlots});
}

}  // namespace mmhand::obs
