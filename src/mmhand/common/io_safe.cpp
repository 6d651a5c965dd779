#include "mmhand/common/io_safe.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "mmhand/fault/fault.hpp"

namespace mmhand::io_safe {

namespace {

constexpr std::uint32_t kMagic = 0x4F494D4D;  // "MMIO" little-endian
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4;

std::atomic<std::int64_t> g_crash_after{-1};

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// RAII close + remove-on-error for the temp file.
struct TempFile {
  std::FILE* file = nullptr;
  std::string path;
  bool keep = false;

  ~TempFile() {
    if (file != nullptr) std::fclose(file);
    if (!keep) {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  }
};

/// Writes `n` bytes honoring the crash-test hook: when armed, exactly
/// `g_crash_after` bytes of the temp file land on disk before the
/// process dies mid-write, like a SIGKILL between two write calls.
std::size_t write_with_crash_hook(std::FILE* f, const unsigned char* data,
                                  std::size_t n, std::size_t written_before) {
  const std::int64_t crash_at = g_crash_after.load(std::memory_order_relaxed);
  if (crash_at >= 0 &&
      static_cast<std::int64_t>(written_before + n) > crash_at) {
    const std::size_t partial =
        static_cast<std::size_t>(crash_at) - written_before;
    if (partial > 0) (void)std::fwrite(data, 1, partial, f);
    std::fflush(f);
    std::_Exit(kCrashExitCode);
  }
  return std::fwrite(data, 1, n, f);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& table = crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void write_file_durable(const std::string& path,
                        const std::vector<unsigned char>& payload) {
  std::vector<unsigned char> blob;
  blob.reserve(kHeaderSize + payload.size());
  put_u32(blob, kMagic);
  put_u32(blob, kVersion);
  put_u64(blob, payload.size());
  put_u32(blob, crc32(payload.data(), payload.size()));
  blob.insert(blob.end(), payload.begin(), payload.end());

  TempFile tmp;
  tmp.path = path + ".tmp";
  tmp.file = std::fopen(tmp.path.c_str(), "wb");
  MMHAND_CHECK(tmp.file != nullptr, "cannot open for writing: " << tmp.path);

  std::size_t want = blob.size();
  // Injected short write: the syscall "succeeds" for only part of the
  // buffer, exactly what a full disk or a signal mid-write produces.
  if (fault::should_inject(fault::Kind::kShortWrite)) want = blob.size() / 2;
  const std::size_t wrote =
      write_with_crash_hook(tmp.file, blob.data(), want, 0);
  MMHAND_CHECK(wrote == blob.size(),
               "short write to " << tmp.path << " (" << wrote << " of "
                                 << blob.size() << " bytes)");
  MMHAND_CHECK(std::fflush(tmp.file) == 0, "flush failure on " << tmp.path);
#if defined(__unix__) || defined(__APPLE__)
  MMHAND_CHECK(::fsync(::fileno(tmp.file)) == 0,
               "fsync failure on " << tmp.path);
#endif
  MMHAND_CHECK(!fault::should_inject(fault::Kind::kFsyncFail),
               "injected fsync failure on " << tmp.path);
  MMHAND_CHECK(std::fclose(tmp.file) == 0, "close failure on " << tmp.path);
  tmp.file = nullptr;

  std::error_code ec;
  std::filesystem::rename(tmp.path, path, ec);
  MMHAND_CHECK(!ec, "cannot rename " << tmp.path << " to " << path << ": "
                                     << ec.message());
  tmp.keep = true;  // renamed away; nothing to clean up
}

std::vector<unsigned char> read_file_validated(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  MMHAND_CHECK(f != nullptr, "cannot open for reading: " << path);
  std::vector<unsigned char> blob;
  std::array<unsigned char, 1 << 16> chunk;
  std::size_t got = 0;
  while ((got = std::fread(chunk.data(), 1, chunk.size(), f)) > 0)
    blob.insert(blob.end(), chunk.data(), chunk.data() + got);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  MMHAND_CHECK(!read_error, "read failure on " << path);

  // Injected bit rot: flip one bit anywhere in the file image; the
  // envelope validation below must catch it, wherever it lands.
  if (!blob.empty() && fault::should_inject(fault::Kind::kBitFlip)) {
    const std::uint64_t bit =
        fault::draw_u64(fault::Kind::kBitFlip) % (blob.size() * 8);
    blob[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }

  MMHAND_CHECK(blob.size() >= kHeaderSize,
               "truncated artifact " << path << " (" << blob.size()
                                     << " bytes)");
  MMHAND_CHECK(get_u32(blob.data()) == kMagic,
               "not a durable mmhand artifact: " << path);
  MMHAND_CHECK(get_u32(blob.data() + 4) == kVersion,
               "unsupported artifact version in " << path);
  const std::uint64_t payload_size = get_u64(blob.data() + 8);
  MMHAND_CHECK(payload_size == blob.size() - kHeaderSize,
               "artifact " << path << " is truncated or padded (header"
                           << " claims " << payload_size << " payload bytes,"
                           << " file holds " << blob.size() - kHeaderSize
                           << ")");
  const std::uint32_t stored_crc = get_u32(blob.data() + 16);
  const std::uint32_t actual_crc =
      crc32(blob.data() + kHeaderSize, static_cast<std::size_t>(payload_size));
  MMHAND_CHECK(stored_crc == actual_crc,
               "CRC mismatch in " << path << " (stored " << stored_crc
                                  << ", computed " << actual_crc << ")");
  return {blob.begin() + static_cast<std::ptrdiff_t>(kHeaderSize),
          blob.end()};
}

std::string quarantine(const std::string& path) {
  const std::string target = path + ".corrupt";
  std::error_code ec;
  std::filesystem::rename(path, target, ec);
  if (!ec) return target;
  std::filesystem::remove(path, ec);
  return "";
}

void set_crash_after_bytes(std::int64_t n) {
  g_crash_after.store(n, std::memory_order_relaxed);
}

std::uint64_t repair_torn_line_tail(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec || size == 0) return 0;
  // A record line is far below 64 KiB; scanning one window from the end
  // finds the last newline of any log this writer produced.
  constexpr std::uintmax_t kWindow = 64 * 1024;
  const std::uintmax_t start = size > kWindow ? size - kWindow : 0;
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return 0;
  std::string window(static_cast<std::size_t>(size - start), '\0');
  const bool seek_failed =
      std::fseek(in, static_cast<long>(start), SEEK_SET) != 0;
  const std::size_t got =
      seek_failed ? 0 : std::fread(window.data(), 1, window.size(), in);
  std::fclose(in);
  if (got != window.size()) return 0;
  const std::size_t last_nl = window.rfind('\n');
  if (last_nl == window.size() - 1) return 0;  // tail is complete
  // No newline anywhere in the window: with start > 0 the window began
  // mid-file and the last line boundary is unknown — leave it alone.
  if (last_nl == std::string::npos && start > 0) return 0;
  const std::uintmax_t keep =
      last_nl == std::string::npos ? 0 : start + last_nl + 1;
  if (keep == size) return 0;
  std::filesystem::resize_file(path, keep, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size - keep);
}

bool LineWriter::open(const std::string& path, std::uint64_t* truncated) {
  if (file_ != nullptr && path_ == path) return true;
  close();
  const std::uint64_t torn = repair_torn_line_tail(path);
  if (truncated != nullptr) *truncated = torn;
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) return false;
  path_ = path;
  return true;
}

bool LineWriter::append(const std::string& line) {
  if (file_ == nullptr) return false;
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size())
    return false;
  if (std::fputc('\n', file_) == EOF) return false;
  return std::fflush(file_) == 0;
}

void LineWriter::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  path_.clear();
}

}  // namespace mmhand::io_safe
