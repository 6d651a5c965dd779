#include "mmhand/obs/flight.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
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
#include "mmhand/obs/log.hpp"
#include "mmhand/obs/trace.hpp"

namespace mmhand::obs {

namespace {

// ---- on-disk layout -------------------------------------------------
//
// | FileHeader (64 B) | name table (name_cap x 64 B) |
// | per-ring: RingHeader (64 B) + slots x Record (64 B), max_threads x |
//
// Every block is 64-byte sized and aligned so a record write touches
// one cache line and mmap alignment is automatic.

constexpr std::uint32_t kMagic = 0x52464D4D;  // "MMFR" little-endian
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kMaxThreads = 64;
constexpr std::uint32_t kNameCap = 256;
constexpr std::size_t kNameBytes = 64;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::uint32_t kNoName = 0xFFFFFFFFu;
constexpr std::uint8_t kKindBegin = 1;
constexpr std::uint8_t kKindEnd = 2;
constexpr std::uint8_t kKindLog = 3;

struct FileHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint32_t max_threads;
  std::uint32_t slots_per_thread;
  std::uint32_t name_capacity;
  std::atomic<std::uint32_t> names_used;
  std::uint64_t start_unix_ms;
  std::uint8_t reserved[32];
};
static_assert(sizeof(FileHeader) == kHeaderBytes);

struct RingHeader {
  std::atomic<std::uint64_t> head;  ///< total records ever written
  std::uint8_t reserved[56];
};
static_assert(sizeof(RingHeader) == 64);

struct Record {
  std::atomic<std::uint64_t> seq;  ///< stored last (release); 0 = torn
  std::int64_t t_ns;
  std::uint32_t name_id;
  std::uint8_t kind;
  std::uint8_t reserved;
  std::uint16_t tid;
  char text[40];
};
static_assert(sizeof(Record) == 64);

/// POD mirrors for readers (memcpy out of the mapping / file blob, so
/// torn concurrent writes never alias an atomic object).
struct HeaderView {
  std::uint32_t magic = 0, version = 0, max_threads = 0, slots = 0,
                name_cap = 0, names_used = 0;
  std::uint64_t start_unix_ms = 0;
};

struct RecordView {
  std::uint64_t seq = 0;
  std::int64_t t_ns = 0;
  std::uint32_t name_id = 0;
  std::uint8_t kind = 0;
  std::uint8_t reserved = 0;
  std::uint16_t tid = 0;
  char text[40] = {};
};

HeaderView read_header(const unsigned char* b) {
  HeaderView v;
  std::memcpy(&v.magic, b + 0, 4);
  std::memcpy(&v.version, b + 4, 4);
  std::memcpy(&v.max_threads, b + 8, 4);
  std::memcpy(&v.slots, b + 12, 4);
  std::memcpy(&v.name_cap, b + 16, 4);
  std::memcpy(&v.names_used, b + 20, 4);
  std::memcpy(&v.start_unix_ms, b + 24, 8);
  return v;
}

std::size_t names_offset() { return kHeaderBytes; }

std::size_t rings_offset(std::uint32_t name_cap) {
  return kHeaderBytes + static_cast<std::size_t>(name_cap) * kNameBytes;
}

std::size_t ring_stride(std::uint32_t slots) {
  return sizeof(RingHeader) + static_cast<std::size_t>(slots) * sizeof(Record);
}

std::size_t total_size(std::uint32_t max_threads, std::uint32_t slots,
                       std::uint32_t name_cap) {
  return rings_offset(name_cap) + max_threads * ring_stride(slots);
}

/// The active mapping.  Never freed: a racing writer may hold the
/// pointer across stop_flight/set_flight (a process remaps at most a
/// handful of times).  Each mapping links the one it replaced, so the
/// retired ones stay reachable from `g_mapping` rather than lost.
struct Mapping {
  unsigned char* base = nullptr;
  std::uint32_t max_threads = 0;
  std::uint32_t slots = 0;
  std::uint32_t name_cap = 0;
  char dump_path[1024] = {};
  const Mapping* prev = nullptr;
};

std::atomic<Mapping*> g_mapping{nullptr};
std::atomic<std::uint64_t> g_generation{0};
std::mutex g_mu;       // set_flight + name interning
std::string g_path;    // guarded by g_mu

RingHeader* ring_header(const Mapping* m, std::uint32_t ring) {
  return reinterpret_cast<RingHeader*>(m->base + rings_offset(m->name_cap) +
                                       ring * ring_stride(m->slots));
}

Record* record_slot(const Mapping* m, std::uint32_t ring, std::uint64_t i) {
  return reinterpret_cast<Record*>(
      m->base + rings_offset(m->name_cap) + ring * ring_stride(m->slots) +
      sizeof(RingHeader) + static_cast<std::size_t>(i) * sizeof(Record));
}

char* name_slot(const Mapping* m, std::uint32_t id) {
  return reinterpret_cast<char*>(m->base + names_offset() + id * kNameBytes);
}

MMHAND_REALTIME
void write_record(std::uint8_t kind, std::uint32_t name_id, const char* text,
                  std::int64_t t_ns) {
  Mapping* m = g_mapping.load(std::memory_order_acquire);
  if (m == nullptr) return;
  const unsigned tid = detail::thread_id();
  const std::uint32_t ring = tid % m->max_threads;
  RingHeader* rh = ring_header(m, ring);
  const std::uint64_t seq = rh->head.fetch_add(1, std::memory_order_relaxed) + 1;
  Record* rec = record_slot(m, ring, (seq - 1) % m->slots);
  rec->seq.store(0, std::memory_order_release);
  rec->t_ns = t_ns;
  rec->name_id = name_id;
  rec->kind = kind;
  rec->tid = static_cast<std::uint16_t>(tid & 0xFFFF);
  if (text != nullptr)
    std::snprintf(rec->text, sizeof(rec->text), "%s", text);
  else
    rec->text[0] = '\0';
  rec->seq.store(seq, std::memory_order_release);
}

/// Registers `name` in the mapped name table (rare: once per call site
/// per mapping); returns its id or kNoName when the table is full.
std::uint32_t intern_name(Mapping* m, const char* name) {
  FileHeader* h = reinterpret_cast<FileHeader*>(m->base);
  const std::uint32_t used =
      std::min(h->names_used.load(std::memory_order_acquire), m->name_cap);
  for (std::uint32_t i = 0; i < used; ++i)
    if (std::strncmp(name_slot(m, i), name, kNameBytes - 1) == 0) return i;
  if (used >= m->name_cap) return kNoName;
  std::snprintf(name_slot(m, used), kNameBytes, "%s", name);
  h->names_used.store(used + 1, std::memory_order_release);
  return used;
}

/// Cached name id of a span site; the token carries the mapping
/// generation so remapping invalidates stale ids without touching the
/// sites.  Steady-state cost: two relaxed/acquire loads, no lock.
std::uint32_t site_name_id(SpanSite& site) {
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (gen == 0) return kNoName;
  const std::uint64_t tok = site.flight_token().load(std::memory_order_relaxed);
  if ((tok >> 32) == gen) return static_cast<std::uint32_t>(tok);
  Mapping* m = g_mapping.load(std::memory_order_acquire);
  if (m == nullptr) return kNoName;
  std::uint32_t id;
  {
    std::lock_guard<std::mutex> lk(g_mu);
    id = intern_name(m, site.name());
  }
  site.flight_token().store((gen << 32) | id, std::memory_order_relaxed);
  return id;
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
bool render_rings(const unsigned char* base, std::size_t size,
                  RenderSink& sink) {
  if (size < kHeaderBytes) return false;
  const HeaderView h = read_header(base);
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
    const char* src = reinterpret_cast<const char*>(base + names_offset() +
                                                    id * kNameBytes);
    std::snprintf(buf, cap, "%.*s", static_cast<int>(kNameBytes - 1), src);
  };

  constexpr int kMaxNest = 64;
  for (std::uint32_t r = 0; r < h.max_threads; ++r) {
    const unsigned char* ring = base + rings_offset(h.name_cap) +
                                r * ring_stride(h.slots);
    std::uint64_t head = 0;
    std::memcpy(&head, ring, 8);
    if (head == 0) continue;
    const std::uint64_t count = std::min<std::uint64_t>(head, h.slots);
    std::snprintf(line, sizeof(line),
                  "thread ring %u: %llu events total, last %llu:\n", r,
                  static_cast<unsigned long long>(head),
                  static_cast<unsigned long long>(count));
    sink.emit(line);

    std::uint32_t open_name[kMaxNest];
    std::int64_t open_t[kMaxNest];
    int depth = 0;
    char name[kNameBytes];
    for (std::uint64_t seq = head - count + 1; seq <= head; ++seq) {
      RecordView rec;
      std::memcpy(&rec, ring + sizeof(RingHeader) +
                            static_cast<std::size_t>((seq - 1) % h.slots) *
                                sizeof(Record),
                  sizeof(RecordView));
      if (rec.seq != seq) {
        sink.emit("  (torn record)\n");
        continue;
      }
      const double t_ms = static_cast<double>(rec.t_ns) / 1e6;
      if (rec.kind == kKindBegin) {
        name_of(rec.name_id, name, sizeof(name));
        std::snprintf(line, sizeof(line),
                      "  [%12.3f ms] tid %u begin %s\n", t_ms, rec.tid,
                      name);
        sink.emit(line);
        if (depth < kMaxNest) {
          open_name[depth] = rec.name_id;
          open_t[depth] = rec.t_ns;
        }
        ++depth;
      } else if (rec.kind == kKindEnd) {
        name_of(rec.name_id, name, sizeof(name));
        std::snprintf(line, sizeof(line),
                      "  [%12.3f ms] tid %u end   %s\n", t_ms, rec.tid,
                      name);
        sink.emit(line);
        if (depth > 0) --depth;
      } else if (rec.kind == kKindLog) {
        rec.text[sizeof(rec.text) - 1] = '\0';
        std::snprintf(line, sizeof(line),
                      "  [%12.3f ms] tid %u log   %s\n", t_ms, rec.tid,
                      rec.text);
        sink.emit(line);
      } else {
        sink.emit("  (unknown record kind)\n");
      }
    }
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
      render_rings(m->base, total_size(m->max_threads, m->slots, m->name_cap),
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
  const std::size_t size = total_size(kMaxThreads, slots, kNameCap);

  std::lock_guard<std::mutex> lk(g_mu);
  const int fd =
      ::open(config.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    MMHAND_WARN("flight: cannot open ring file %s", config.path.c_str());
    return false;
  }
  // Reuse a compatible existing ring (events append across restarts);
  // anything else — wrong geometry, stale version, foreign file — is
  // re-initialized from scratch.
  bool reuse = false;
  struct stat st;
  std::memset(&st, 0, sizeof(st));
  if (::fstat(fd, &st) == 0 &&
      static_cast<std::size_t>(st.st_size) == size) {
    unsigned char probe[kHeaderBytes];
    if (::pread(fd, probe, sizeof(probe), 0) ==
        static_cast<ssize_t>(sizeof(probe))) {
      const HeaderView v = read_header(probe);
      reuse = v.magic == kMagic && v.version == kVersion &&
              v.max_threads == kMaxThreads && v.slots == slots &&
              v.name_cap == kNameCap;
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
  m->max_threads = kMaxThreads;
  m->slots = slots;
  m->name_cap = kNameCap;
  std::snprintf(m->dump_path, sizeof(m->dump_path), "%s.dump.txt",
                config.path.c_str());
  if (!reuse) {
    FileHeader* h = reinterpret_cast<FileHeader*>(m->base);
    h->magic = kMagic;
    h->version = kVersion;
    h->max_threads = kMaxThreads;
    h->slots_per_thread = slots;
    h->name_capacity = kNameCap;
    h->names_used.store(0, std::memory_order_relaxed);
    h->start_unix_ms = static_cast<std::uint64_t>(unix_time_ms());
  }
  g_path = config.path;
  m->prev = g_mapping.load(std::memory_order_relaxed);
  g_mapping.store(m, std::memory_order_release);
  g_generation.fetch_add(1, std::memory_order_acq_rel);
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
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "flight: cannot read " + path;
    return "";
  }
  std::vector<unsigned char> blob((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  std::string out;
  RenderSink sink;
  sink.out = &out;
  if (!render_rings(blob.data(), blob.size(), sink)) {
    if (error != nullptr)
      *error = "flight: " + path + " is not a valid flight ring";
    return "";
  }
  return out;
}

namespace detail {

MMHAND_REALTIME
void flight_span_event(SpanSite& site, bool begin, std::int64_t t_ns) {
  write_record(begin ? kKindBegin : kKindEnd, site_name_id(site), nullptr,
               t_ns);
}

MMHAND_REALTIME
void flight_note_log(const char* line) {
  write_record(kKindLog, kNoName, line, now_ns());
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
