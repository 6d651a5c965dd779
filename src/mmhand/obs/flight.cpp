#include "mmhand/obs/flight.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <mutex>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define MMHAND_FLIGHT_POSIX 1
#endif

#include "mmhand/common/clock.hpp"
#include "mmhand/common/realtime.hpp"
#include "mmhand/obs/event.hpp"
#include "mmhand/obs/log.hpp"
#include "mmhand/obs/state.hpp"

namespace mmhand::obs {

// ---- the event ring (event.hpp): the trace rings run it too ---------

namespace detail {

namespace {

using Word = std::atomic_ref<std::uint64_t>;

std::uint64_t* slot_words(Ring ring, std::uint64_t seq) {
  return ring.words + kRingHeaderWords + ((seq - 1) % ring.slots) * kEventWords;
}

}  // namespace

Event make_event(std::uint8_t kind, std::uint32_t site, std::int64_t t_ns) {
  Event e{};
  e.t_ns = t_ns;
  e.site = site;
  e.kind = kind;
  e.tid = static_cast<std::uint16_t>(thread_id() & 0xFFFF);
  return e;
}

MMHAND_REALTIME
void ring_push(Ring ring, const Event& e) {
  const std::uint64_t seq =
      Word(ring.words[0]).fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t* slot = slot_words(ring, seq);
  std::uint64_t w[kEventWords];
  std::memcpy(w, &e, sizeof(w));
  Word(slot[0]).store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (std::uint64_t i = 1; i < kEventWords; ++i)
    Word(slot[i]).store(w[i], std::memory_order_relaxed);
  Word(slot[0]).store(seq, std::memory_order_release);
}

void ring_clear(Ring ring) {
  Word(ring.words[1]).store(
      Word(ring.words[0]).load(std::memory_order_acquire),
      std::memory_order_relaxed);
}

RingWindow ring_window(Ring ring) {
  RingWindow w;
  w.head = Word(ring.words[0]).load(std::memory_order_acquire);
  const std::uint64_t floor =
      Word(ring.words[1]).load(std::memory_order_relaxed);
  const std::uint64_t oldest = w.head > ring.slots ? w.head - ring.slots : 0;
  w.first = std::min(w.head, std::max(floor, oldest));
  w.lost = w.first - std::min(floor, w.first);
  return w;
}

bool ring_load(Ring ring, std::uint64_t seq, Event* out) {
  std::uint64_t* slot = slot_words(ring, seq);
  std::uint64_t w[kEventWords];
  w[0] = Word(slot[0]).load(std::memory_order_acquire);
  if (w[0] != seq) return false;
  for (std::uint64_t i = 1; i < kEventWords; ++i)
    w[i] = Word(slot[i]).load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (Word(slot[0]).load(std::memory_order_relaxed) != seq) return false;
  std::memcpy(out, w, sizeof(w));
  return true;
}

}  // namespace detail

namespace {

// ---- on-disk layout -------------------------------------------------
//
// | header (64 B) | name table (name_cap x 64 B) |
// | per-ring: ring header (64 B) + slots x Event (64 B), max_threads x |
//
// Every block is 64-byte sized and aligned so an event write touches
// one cache line and mmap alignment is automatic.  The rings are the
// event.hpp rings; the name table mirrors the process name table.

constexpr std::uint32_t kMagic = 0x52464D4D;  // "MMFR" little-endian
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kNameBytes = 64;
constexpr std::size_t kHeaderBytes = 64;

/// The leading fields of the 64-byte header block.  Readers memcpy it
/// out of the mapping or file blob; the writer raises `names_used`
/// through atomic_ref.
struct FileHeader {
  std::uint32_t magic, version, max_threads, slots, name_cap, names_used;
  std::uint64_t start_unix_ms;
};

FileHeader read_header(const unsigned char* b) {
  FileHeader h;
  std::memcpy(&h, b, sizeof(h));
  return h;
}

std::size_t rings_offset(std::uint32_t name_cap) {
  return kHeaderBytes + static_cast<std::size_t>(name_cap) * kNameBytes;
}

std::size_t total_size(std::uint32_t max_threads, std::uint32_t slots,
                       std::uint32_t name_cap) {
  return rings_offset(name_cap) + max_threads * detail::ring_bytes(slots);
}

detail::Ring file_ring(unsigned char* base, std::uint32_t name_cap,
                       std::uint32_t slots, std::uint32_t r) {
  return {reinterpret_cast<std::uint64_t*>(base + rings_offset(name_cap) +
                                           r * detail::ring_bytes(slots)),
          slots};
}

/// Name-table entry `id` of the image at `base`, as words (written and
/// read through atomic_ref like the ring slots).
std::uint64_t* name_words(unsigned char* base, std::uint32_t id) {
  return reinterpret_cast<std::uint64_t*>(base + kHeaderBytes +
                                          id * kNameBytes);
}

/// The active mapping.  Never freed: a racing writer may hold the
/// pointer across stop_flight/set_flight (a process remaps at most a
/// handful of times).  Each mapping links the one it replaced, so the
/// retired ones stay reachable from `g_mapping` rather than lost.
struct Mapping {
  unsigned char* base = nullptr;
  std::uint32_t slots = 0;
  std::uint32_t name_base = 0;  ///< file entry of process name id 0
  char dump_path[1024] = {};
  const Mapping* prev = nullptr;
};

std::atomic<Mapping*> g_mapping{nullptr};
std::mutex g_mu;       // set_flight
std::string g_path;    // guarded by g_mu

/// Copies process name `id` into the mapping's table and raises its
/// `names_used`.  Racing copies of the same entry store the same words.
void publish_name(Mapping* m, std::uint32_t process_id, const char* name) {
  const std::uint32_t id = m->name_base + process_id;
  if (id >= detail::kNameCap) return;
  std::uint64_t words[kNameBytes / 8] = {};
  std::snprintf(reinterpret_cast<char*>(words), kNameBytes, "%s", name);
  std::uint64_t* slot = name_words(m->base, id);
  for (std::size_t i = 0; i < kNameBytes / 8; ++i)
    detail::Word(slot[i]).store(words[i], std::memory_order_relaxed);
  std::atomic_ref<std::uint32_t> names_used(*reinterpret_cast<std::uint32_t*>(
      m->base + offsetof(FileHeader, names_used)));
  std::uint32_t used = names_used.load(std::memory_order_relaxed);
  while (used < id + 1 &&
         !names_used.compare_exchange_weak(used, id + 1,
                                           std::memory_order_release)) {
  }
}

// ---- rendering ------------------------------------------------------

/// Line sink usable from a signal handler (fd mode: write(2) only, no
/// allocation) or from normal code (string mode).
struct RenderSink {
  int fd = -1;
  std::string* out = nullptr;

  void emit(const char* line) {
    if (out != nullptr) {
      *out += line;
    } else if (fd >= 0) {
#if defined(MMHAND_FLIGHT_POSIX)
      const std::size_t n = std::strlen(line);
      std::size_t done = 0;
      while (done < n) {
        const ssize_t w = ::write(fd, line + done, n - done);
        if (w <= 0) break;
        done += static_cast<std::size_t>(w);
      }
#endif
    }
  }
};

/// Renders the ring image at `base` (live mapping or file blob).  Only
/// snprintf + sink.emit — safe from the crash handlers in fd mode.
bool render_rings(unsigned char* base, std::size_t size, RenderSink& sink) {
  if (size < kHeaderBytes) return false;
  const FileHeader h = read_header(base);
  if (h.magic != kMagic || h.version != kVersion) return false;
  if (h.max_threads == 0 || h.max_threads > 1024 || h.slots == 0 ||
      h.slots > (1u << 20) || h.name_cap == 0 || h.name_cap > 4096)
    return false;
  if (total_size(h.max_threads, h.slots, h.name_cap) > size) return false;

  char line[320];
  std::snprintf(line, sizeof(line),
                "flight ring: %u thread rings x %u slots, %u names, "
                "started unix_ms=%llu\n",
                h.max_threads, h.slots,
                std::min(h.names_used, h.name_cap),
                static_cast<unsigned long long>(h.start_unix_ms));
  sink.emit(line);

  const auto name_of = [&](std::uint32_t id, char* buf, std::size_t cap) {
    if (id >= std::min(h.names_used, h.name_cap)) {
      std::snprintf(buf, cap, "?");
      return;
    }
    std::uint64_t words[kNameBytes / 8];
    std::uint64_t* src = name_words(base, id);
    for (std::size_t i = 0; i < kNameBytes / 8; ++i)
      words[i] = detail::Word(src[i]).load(std::memory_order_relaxed);
    std::snprintf(buf, cap, "%.*s", static_cast<int>(kNameBytes - 1),
                  reinterpret_cast<const char*>(words));
  };

  constexpr int kMaxNest = 64;
  for (std::uint32_t r = 0; r < h.max_threads; ++r) {
    const detail::Ring ring = file_ring(base, h.name_cap, h.slots, r);
    const detail::RingWindow window = detail::ring_window(ring);
    if (window.head == 0) continue;
    std::snprintf(line, sizeof(line),
                  "thread ring %u: %llu events total, last %llu:\n", r,
                  static_cast<unsigned long long>(window.head),
                  static_cast<unsigned long long>(window.head -
                                                  window.first));
    sink.emit(line);

    std::uint32_t open_name[kMaxNest];
    std::int64_t open_t[kMaxNest];
    int depth = 0;
    char name[kNameBytes];
    detail::ring_read(ring, window, [&](const detail::Event* rec) {
      if (rec == nullptr) {
        sink.emit("  (torn record)\n");
        return;
      }
      const double t_ms = static_cast<double>(rec->t_ns) / 1e6;
      if (rec->kind == detail::kEventBegin ||
          rec->kind == detail::kEventEnd) {
        const bool begin = rec->kind == detail::kEventBegin;
        name_of(rec->site, name, sizeof(name));
        std::snprintf(line, sizeof(line), "  [%12.3f ms] tid %u %s %s\n",
                      t_ms, rec->tid, begin ? "begin" : "end  ", name);
        sink.emit(line);
        if (begin && depth < kMaxNest) {
          open_name[depth] = rec->site;
          open_t[depth] = rec->t_ns;
        }
        depth = begin ? depth + 1 : std::max(depth - 1, 0);
      } else if (rec->kind == detail::kEventLog) {
        std::snprintf(line, sizeof(line),
                      "  [%12.3f ms] tid %u log   %.*s\n", t_ms, rec->tid,
                      static_cast<int>(sizeof(rec->text) - 1), rec->text);
        sink.emit(line);
      } else {
        sink.emit("  (unknown record kind)\n");
      }
    });
    // Whatever was begun but never ended inside the retained window was
    // open when recording stopped — the spans the process died inside.
    for (int d = std::min(depth, kMaxNest) - 1; d >= 0; --d) {
      name_of(open_name[d], name, sizeof(name));
      std::snprintf(line, sizeof(line),
                    "  in-flight: %s (begun %.3f ms)\n", name,
                    static_cast<double>(open_t[d]) / 1e6);
      sink.emit(line);
    }
  }
  sink.emit("end of flight dump\n");
  return true;
}

/// Appends a rendered dump to the configured dump file.  Async-signal
/// tolerable: open/write/close plus snprintf formatting only.
bool dump_to_file(const char* reason) {
#if defined(MMHAND_FLIGHT_POSIX)
  Mapping* m = g_mapping.load(std::memory_order_acquire);
  if (m == nullptr) return false;
  const int fd = ::open(m->dump_path, O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return false;
  RenderSink sink;
  sink.fd = fd;
  char line[160];
  std::snprintf(line, sizeof(line), "=== mmhand flight dump: %s ===\n",
                reason);
  sink.emit(line);
  const bool ok =
      render_rings(m->base, total_size(detail::kMaxRings, m->slots,
                                       detail::kNameCap),
                   sink);
  ::close(fd);
  return ok;
#else
  (void)reason;
  return false;
#endif
}

#if defined(MMHAND_FLIGHT_POSIX)
void crash_signal_handler(int sig) {
  char reason[32];
  std::snprintf(reason, sizeof(reason), "signal %d", sig);
  dump_to_file(reason);
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}
#endif

std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void flight_terminate_handler() {
  dump_to_file("std::terminate");
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

void install_handlers_once() {
  static std::once_flag once;
  std::call_once(once, [] {
#if defined(MMHAND_FLIGHT_POSIX)
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = crash_signal_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESETHAND;
    for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
      ::sigaction(sig, &sa, nullptr);
#endif
    g_prev_terminate = std::set_terminate(&flight_terminate_handler);
  });
}

}  // namespace

bool parse_flight_spec(const std::string& spec, FlightConfig* config,
                       std::string* error) {
  FlightConfig out;
  std::size_t pos = 0;
  bool first = true;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    if (first) {
      out.path = token;
      first = false;
    } else if (token.rfind("slots=", 0) == 0) {
      char* end = nullptr;
      const long v = std::strtol(token.c_str() + 6, &end, 10);
      if (end == nullptr || *end != '\0' || v < 16 || v > (1 << 16)) {
        if (error != nullptr)
          *error = "flight spec: slots must be an integer in [16, 65536]";
        return false;
      }
      out.slots_per_thread = static_cast<int>(v);
    } else if (!token.empty()) {
      if (error != nullptr)
        *error = "flight spec: unknown key '" + token +
                 "' (grammar: <path>[,slots=N])";
      return false;
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.path.empty()) {
    if (error != nullptr) *error = "flight spec: empty ring path";
    return false;
  }
  *config = out;
  return true;
}

bool set_flight(const FlightConfig& config) {
  if (config.path.empty()) {
    MMHAND_WARN("flight: empty ring path");
    return false;
  }
#if !defined(MMHAND_FLIGHT_POSIX)
  MMHAND_WARN("flight recorder needs POSIX mmap; disabled on this platform");
  return false;
#else
  const std::uint32_t slots = static_cast<std::uint32_t>(
      std::clamp(config.slots_per_thread, 16, 1 << 16));
  const std::size_t size =
      total_size(detail::kMaxRings, slots, detail::kNameCap);

  std::lock_guard<std::mutex> lk(g_mu);
  const int fd =
      ::open(config.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    MMHAND_WARN("flight: cannot open ring file %s", config.path.c_str());
    return false;
  }
  // Reuse a compatible existing ring (events append across restarts)
  // whose name table has room for this process's names; anything else —
  // wrong geometry, stale version, foreign file — is re-initialized
  // from scratch.
  bool reuse = false;
  std::uint32_t names_before = 0;
  struct stat st;
  std::memset(&st, 0, sizeof(st));
  if (::fstat(fd, &st) == 0 &&
      static_cast<std::size_t>(st.st_size) == size) {
    unsigned char probe[kHeaderBytes];
    if (::pread(fd, probe, sizeof(probe), 0) ==
        static_cast<ssize_t>(sizeof(probe))) {
      const FileHeader v = read_header(probe);
      reuse = v.magic == kMagic && v.version == kVersion &&
              v.max_threads == detail::kMaxRings && v.slots == slots &&
              v.name_cap == detail::kNameCap &&
              v.names_used <= detail::kNameCap / 2;
      names_before = v.names_used;
    }
  }
  if (!reuse && (::ftruncate(fd, 0) != 0 ||
                 ::ftruncate(fd, static_cast<off_t>(size)) != 0)) {
    MMHAND_WARN("flight: cannot size ring file %s", config.path.c_str());
    ::close(fd);
    return false;
  }
  void* mem = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                     0);
  ::close(fd);
  if (mem == MAP_FAILED) {
    MMHAND_WARN("flight: cannot mmap ring file %s", config.path.c_str());
    return false;
  }

  auto* m = new Mapping;
  m->base = static_cast<unsigned char*>(mem);
  m->slots = slots;
  std::snprintf(m->dump_path, sizeof(m->dump_path), "%s.dump.txt",
                config.path.c_str());
  m->prev = g_mapping.load(std::memory_order_relaxed);
  if (!reuse) {
    const FileHeader h{kMagic, kVersion, detail::kMaxRings, slots,
                       detail::kNameCap, 0,
                       static_cast<std::uint64_t>(unix_time_ms())};
    std::memcpy(m->base, &h, sizeof(h));
  } else {
    // Earlier events name entries [0, names_before): this process's ids
    // land after them.
    m->name_base = names_before;
  }
  g_path = config.path;
  g_mapping.store(m, std::memory_order_seq_cst);
  for (std::uint32_t id = 0; id < detail::names_used(); ++id)
    if (const char* name = detail::name_of(id)) publish_name(m, id, name);
  install_handlers_once();
  detail::set_mask_bit(detail::kFlightBit, true);
  return true;
#endif
}

void stop_flight() {
  detail::set_mask_bit(detail::kFlightBit, false);
  // The mapping stays alive (see Mapping): clearing the mask bit stops
  // new events at the span gate; the ring file keeps its contents.
  std::lock_guard<std::mutex> lk(g_mu);
  g_path.clear();
}

std::string flight_path() {
  if (!flight_enabled()) return "";
  std::lock_guard<std::mutex> lk(g_mu);
  return g_path;
}

bool flight_dump(const char* reason) { return dump_to_file(reason); }

std::string flight_render_file(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    if (error != nullptr) *error = "flight: cannot read " + path;
    return "";
  }
  // Word storage: the reader loads the image through atomic_ref.
  const auto size = static_cast<std::size_t>(in.tellg());
  std::vector<std::uint64_t> blob((size + 7) / 8);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(blob.data()),
          static_cast<std::streamsize>(size));
  std::string out;
  RenderSink sink;
  sink.out = &out;
  if (!in || !render_rings(reinterpret_cast<unsigned char*>(blob.data()),
                           size, sink)) {
    if (error != nullptr)
      *error = "flight: " + path + " is not a valid flight ring";
    return "";
  }
  return out;
}

namespace detail {

namespace {
std::atomic<const char*> g_names[kNameCap];
std::atomic<std::uint32_t> g_names_used{0};
}  // namespace

std::uint32_t intern_name(const char* name) {
  std::uint32_t id = g_names_used.load(std::memory_order_relaxed);
  do {
    if (id >= kNameCap) return kNoName;
  } while (!g_names_used.compare_exchange_weak(id, id + 1,
                                               std::memory_order_relaxed));
  g_names[id].store(name, std::memory_order_seq_cst);
  if (Mapping* m = g_mapping.load(std::memory_order_seq_cst))
    publish_name(m, id, name);
  return id;
}

const char* name_of(std::uint32_t id) {
  return id < kNameCap ? g_names[id].load(std::memory_order_seq_cst)
                       : nullptr;
}

std::uint32_t names_used() {
  return std::min(g_names_used.load(std::memory_order_acquire), kNameCap);
}

MMHAND_REALTIME
void flight_push(const Event& e) {
  Mapping* m = g_mapping.load(std::memory_order_acquire);
  if (m == nullptr) return;
  Event rec = e;
  if (rec.site != kNoName)
    rec.site = rec.site + m->name_base < kNameCap ? rec.site + m->name_base
                                                  : kNoName;
  ring_push(file_ring(m->base, kNameCap, m->slots, rec.tid % kMaxRings), rec);
}

MMHAND_REALTIME
void flight_note_log(const char* line) {
  Event e = make_event(kEventLog, kNoName, now_ns());
  std::snprintf(e.text, sizeof(e.text), "%s", line);
  flight_push(e);
}

void flight_on_mask_init() {
  static std::once_flag once;
  std::call_once(once, [] {
    FlightConfig config;
    std::string error;
    if (!parse_flight_spec(flight_spec_raw(), &config, &error)) {
      MMHAND_WARN("MMHAND_FLIGHT: %s", error.c_str());
      set_mask_bit(kFlightBit, false);
      return;
    }
    if (!set_flight(config)) set_mask_bit(kFlightBit, false);
  });
}

}  // namespace detail

}  // namespace mmhand::obs
