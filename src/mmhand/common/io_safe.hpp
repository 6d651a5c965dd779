#pragma once

// Crash-safe artifact IO: every binary artifact (fold models, the mesh
// reconstructor, training checkpoints) goes to disk through one durable
// path — payload wrapped in a validated envelope, written to a
// temporary sibling, fsynced, and atomically renamed into place.  A
// reader therefore sees either the complete previous artifact or the
// complete new one, never a torn mix; anything else (truncation, bit
// rot, a stale pre-envelope file) fails CRC/structure validation and
// raises mmhand::Error so callers can quarantine and rebuild.
//
// Envelope layout (little-endian):
//   u32 magic "MMIO" | u32 version | u64 payload size | u32 payload CRC32
// followed by the payload bytes.
//
// The IO fault kinds of MMHAND_FAULT (short_write, fsync_fail,
// bit_flip) are injected here, at the exact points the real failures
// occur, so the recovery guarantees above are exercised by tests rather
// than assumed.

#include <cstdint>
#include <string>
#include <vector>

#include "mmhand/common/error.hpp"

namespace mmhand::io_safe {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of a buffer.
std::uint32_t crc32(const void* data, std::size_t n);

/// Durably writes `payload` to `path`: envelope + payload into
/// `<path>.tmp`, flush + fsync, atomic rename over `path`.  Throws
/// mmhand::Error on any failure; `path` is never left truncated or
/// half-written (the temp file is removed on error).
void write_file_durable(const std::string& path,
                        const std::vector<unsigned char>& payload);

/// Reads `path` and validates the envelope (magic, version, size, CRC).
/// Returns the payload; throws mmhand::Error when the file is missing,
/// truncated, bit-flipped, or not an envelope at all.
std::vector<unsigned char> read_file_validated(const std::string& path);

/// Moves a corrupt artifact aside to `<path>.corrupt` (best effort;
/// falls back to removing it) so the caller can rebuild without the
/// poisoned file shadowing the fresh one.  Returns the quarantine path,
/// or "" when the file could only be removed.
std::string quarantine(const std::string& path);

/// Crash-test hook: the next durable write calls std::_Exit after `n`
/// bytes of the temp file have been written, simulating a SIGKILL mid
/// write.  Negative disables (the default).  Exit code 86 marks the
/// simulated kill for death tests.
void set_crash_after_bytes(std::int64_t n);

/// Exit code used by the crash-test hook.
inline constexpr int kCrashExitCode = 86;

/// Truncates a torn final line left by a crash mid-append: scans the
/// last 64 KiB for the final newline and resizes the file back to it,
/// so an append-only JSONL stream stays line-parseable after any kill.
/// Best effort — losing the torn record is the correct outcome.
/// Returns the number of bytes truncated (0 when the tail was intact).
std::uint64_t repair_torn_line_tail(const std::string& path);

/// Append-only line sink for JSONL streams (run log, telemetry).
/// Opening repairs a torn tail; every append is a full line plus '\n'
/// followed by fflush, so a reader tailing the file never sees a
/// partial record except for the final line of a crashed writer — which
/// the next open truncates.
class LineWriter {
 public:
  LineWriter() = default;
  ~LineWriter() { close(); }
  LineWriter(const LineWriter&) = delete;
  LineWriter& operator=(const LineWriter&) = delete;

  /// Opens `path` for appending (repairing a torn tail first, and
  /// storing the bytes it truncated in `*truncated` when given).  A
  /// second open on the same path is a no-op; a different path closes
  /// the previous sink.  False when the file cannot be opened.
  bool open(const std::string& path, std::uint64_t* truncated = nullptr);
  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Appends `line` + '\n' and flushes.  False when no sink is open or
  /// the write fails.
  bool append(const std::string& line);
  void close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

}  // namespace mmhand::io_safe
