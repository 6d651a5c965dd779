#pragma once

// The one observability event record and the one ring that stores it
// (implemented in flight.cpp).  A span begin or end, a frame flow anchor
// and a flight log line are each one 64-byte `Event` — a cache line —
// in a per-thread ring.  The same ring code runs the trace rings
// (trace.cpp: anonymous memory, rendered by `write_trace`) and the
// flight rings (inside the MAP_SHARED ring file, rendered by
// `flight_dump` / `flight_render_file`).
//
// A ring is a 64-byte header (word 0: head, the count of events ever
// pushed; word 1: floor, the head at the last clear) and `slots`
// events.  A writer takes its seq with one fetch_add on the head, fills
// the slot, and stores the seq last with release; a reader skips any
// slot whose seq does not match (torn, or overwritten while it read).
// Every slot word goes through std::atomic_ref, so readers may run
// while writers record.

#include <cstdint>

namespace mmhand::obs::detail {

inline constexpr std::uint32_t kMaxRings = 64;  ///< tid % kMaxRings picks
inline constexpr std::uint32_t kNameCap = 256;  ///< process name table
inline constexpr std::uint32_t kNoName = 0xFFFFFFFFu;

enum EventKind : std::uint8_t {
  kEventBegin = 1,
  kEventEnd = 2,
  kEventLog = 3,
  kEventFlowAnchor = 4,  ///< frame-context anchor (`ph:"s"`), trace only
};

/// `Event::flags` bit: a cross-thread child of its frame (`ph:"f"`).
inline constexpr std::uint8_t kEventFlowTarget = 1;

struct Event {
  std::uint64_t seq;   ///< set by ring_push; 0 in an unwritten slot
  std::int64_t t_ns;   ///< obs clock
  std::uint32_t site;  ///< name-table id, kNoName for logs and anchors
  std::uint8_t kind;   ///< EventKind
  std::uint8_t flags;
  std::uint16_t tid;
  union {
    std::uint64_t trace_id;  ///< span end / anchor: frame context, 0 = none
    char text[40];           ///< log: NUL-terminated, truncated
  };
};
static_assert(sizeof(Event) == 64);

inline constexpr std::uint64_t kRingHeaderWords = 8;
inline constexpr std::uint64_t kEventWords = sizeof(Event) / 8;

constexpr std::uint64_t ring_bytes(std::uint64_t slots) {
  return (kRingHeaderWords + slots * kEventWords) * 8;
}

/// A ring over borrowed memory: its header, then `slots` events.
struct Ring {
  std::uint64_t* words = nullptr;
  std::uint64_t slots = 0;
};

/// The retained window, seqs (first, head]; `lost` counts the events
/// pushed since the last clear that were overwritten.
struct RingWindow {
  std::uint64_t first = 0, head = 0, lost = 0;
};

/// An event of `kind` at `t_ns` on the calling thread.
Event make_event(std::uint8_t kind, std::uint32_t site, std::int64_t t_ns);
/// Lock-free, allocation-free; assigns the seq.
void ring_push(Ring ring, const Event& e);
/// Readers start after every event pushed so far.
void ring_clear(Ring ring);
RingWindow ring_window(Ring ring);
/// False when slot `seq` is torn or holds another seq.
bool ring_load(Ring ring, std::uint64_t seq, Event* out);

/// Calls `fn(const Event*)` for every event in `w`, oldest first; null
/// marks a torn record.  Allocation-free: safe in a signal handler.
template <typename Fn>
void ring_read(Ring ring, const RingWindow& w, Fn&& fn) {
  // Counted, not `seq <= head`: a corrupt image's head may be 2^64 - 1.
  for (std::uint64_t i = 0; i < w.head - w.first; ++i) {
    Event e;
    fn(ring_load(ring, w.first + 1 + i, &e) ? &e : nullptr);
  }
}

/// Registers `name` (stored by pointer) in the one append-only process
/// name table that span-site ids index; kNoName once it is full.
std::uint32_t intern_name(const char* name);
/// Name of entry `id`, or null when unassigned.
const char* name_of(std::uint32_t id);
/// Entries assigned so far.
std::uint32_t names_used();

/// Pushes `e` into the calling thread's flight ring.
void flight_push(const Event& e);
/// Pushes `e` into the trace and/or flight ring, as `mask` selects.
void push_event(int mask, const Event& e);

}  // namespace mmhand::obs::detail
