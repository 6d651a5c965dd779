#pragma once

// mmhand_lint rule engine.
//
// Enforces the repo-specific invariants the last few PRs established by
// convention: every env knob is read through obs/state (or one of the
// few allowlisted readers), all console output goes through obs/log,
// all randomness flows from common/rng, raw SIMD stays under
// src/mmhand/simd, perf_event access stays under src/mmhand/obs/pmu,
// headers are self-contained and guard-free, and every MMHAND_* env
// literal is documented in README.
// Generic tools (clang-tidy, -W flags) cannot know these rules; this
// engine does.
//
// The checks run on file *contents* passed in as strings, so tests can
// exercise each rule on small fixtures without touching the tree.  The
// config loaders and the tree walk live here too, so the CLI driver
// (tools/mmhand_lint.cpp) and tests/test_lint.cpp run the gates on the
// same lists and the same files.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace mmhand::lint {

struct Finding {
  std::string file;     ///< repo-relative path, forward slashes
  int line = 0;         ///< 1-based
  std::string rule;     ///< stable rule id, e.g. "no-direct-io"
  std::string message;
};

/// Allowlists and repo facts the rules consult.  Paths are
/// repo-relative with forward slashes, exactly as findings report them.
struct Config {
  /// Files permitted to call getenv (rule getenv-allowlist).
  std::vector<std::string> getenv_allow;
  /// Files under src/mmhand/ (beyond obs/) permitted direct console
  /// output (rule no-direct-io) — the sanctioned eval printers.
  std::vector<std::string> io_allow;
  /// Files permitted to open binary write streams directly (rule
  /// durable-write) — the durable-IO layer itself.
  std::vector<std::string> durable_write_allow;
  /// Files permitted raw malloc/free (rule no-raw-alloc) — the
  /// operator-new interposer, which must not allocate through itself.
  std::vector<std::string> raw_alloc_allow;
  /// MMHAND_* env-var names documented in the README table
  /// (rule env-var-docs).
  std::vector<std::string> documented_env;
};

/// Replaces the allowlists in `*cfg` with those in
/// scripts/lint_allowlist.json text (keys "getenv", "direct_io",
/// "durable_write", "raw_alloc": arrays of paths; an absent key is an
/// empty list).  Returns false and sets `*error` on malformed input.
bool parse_allowlist_json(const std::string& text, Config* cfg,
                          std::string* error);

/// The lint config of the tree at `root`: the allowlists in
/// <root>/scripts/lint_allowlist.json and the env names documented in
/// <root>/README.md.  Returns false and sets `*error`, naming the
/// file, when either is missing, unreadable or malformed.
bool load_lint_config(const std::string& root, Config* cfg,
                      std::string* error);

/// (repo-relative path, content) pairs: what both gates run on.
using Sources = std::vector<std::pair<std::string, std::string>>;

/// Which gate a tree walk feeds; it picks the default targets and the
/// extension set.
enum class Gate {
  kLint,    ///< src/ tests/ bench/ tools/: .cpp .hpp .h
  kPurity,  ///< src/mmhand/: .cpp .hpp .h .inl (kernel bodies)
};

/// Reads every file of the gate's extension set under `targets` (files
/// or directories, relative to `root` or absolute; empty means the
/// gate's defaults), sorted by path, each file once however many
/// targets reach it.  Absent targets are skipped, so a
/// partial checkout still lints.  Returns false and sets `*error` on an
/// unreadable file.
bool read_sources(const std::string& root, Gate gate,
                  const std::vector<std::string>& targets, Sources* out,
                  std::string* error);

/// Lexing helpers the purity analyzer shares.
bool is_ident_char(char c);
/// 1-based line of offset `pos`.
int line_of(const std::string& text, std::size_t pos);
/// Offset of the first whole-identifier occurrence of `token` at or
/// after `from`; npos when absent.
std::size_t find_ident(const std::string& text, const std::string& token,
                       std::size_t from);

/// Replaces comments and string/char literal contents with spaces,
/// preserving line structure, so token scans don't fire inside them.
std::string strip_comments_and_strings(const std::string& src);

/// Runs every applicable rule on one file.  `path` decides which rules
/// apply (src/mmhand/ vs tests/ vs tools/, header vs source).
std::vector<Finding> check_file(const std::string& path,
                                const std::string& content,
                                const Config& cfg);

/// check_file() over every source, findings in source order — one run
/// of the lint gate.
std::vector<Finding> check_sources(const Sources& sources, const Config& cfg);

/// Extracts the MMHAND_* names mentioned anywhere in the README text —
/// the documented set rule env-var-docs checks literals against.
std::vector<std::string> extract_documented_env(const std::string& readme);

/// Serializes findings for tooling (mmhand_report): an object with
/// "tool", "files_scanned", per-rule "counts", and a "findings" array.
std::string findings_to_json(const std::vector<Finding>& findings,
                             std::size_t files_scanned);

}  // namespace mmhand::lint
