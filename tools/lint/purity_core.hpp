#pragma once

// Hot-path purity analyzer (`mmhand_lint --purity`).
//
// A token-level call-graph extractor over src/mmhand/**: it indexes
// every function definition (and function-like macro), finds the roots
// annotated MMHAND_REALTIME (common/realtime.hpp), walks the transitive
// closure of their call sites, and reports any reachable body that
// touches a deny class — heap allocation, locks, throws, stream I/O, or
// blocking syscalls — with the full call chain from the root.
//
// Deliberately libclang-free: a symbol table plus terminal-name
// resolution over stripped sources.  Resolution is over-approximate
// (a call `x.run()` reaches *every* definition named `run`), which is
// the sound direction for a safety gate — false edges only widen the
// audited surface, never hide a violation.  Two real blind spots
// remain, documented in DESIGN.md §12: allocation hidden behind value
// construction (`Tensor y({n, m})`) and calls through function
// pointers.  scripts/check_purity.sh closes both at runtime with the
// operator-new interposer (obs/alloc).
//
// Audited entries (scripts/purity_allowlist.json) mark functions whose
// bodies were reviewed by hand — grow-on-demand scratch, lock-free
// caches with a cold build path, cold failure paths.  An audited
// function is opaque: its body is neither scanned nor traversed.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace mmhand::lint {

struct PurityConfig {
  struct Audited {
    /// Qualified-name suffix, e.g. "radar::frame_workspace" or a macro
    /// name like "MMHAND_CHECK".  Matches any indexed function whose
    /// qualified name ends with this path.
    std::string function;
    /// Why this body is exempt — rendered in reports, required.
    std::string reason;
  };
  std::vector<Audited> audited;
};

/// One deny-class token found in a reachable function body.
struct PurityHit {
  std::string root;      ///< qualified name of the MMHAND_REALTIME root
  std::vector<std::string> chain;  ///< root -> ... -> offending function
  std::string function;  ///< qualified name of the offending function
  std::string file;      ///< repo-relative path of its definition
  int line = 0;          ///< 1-based line of the token
  std::string category;  ///< heap-alloc | lock | throw | io | syscall
  std::string token;     ///< the offending identifier
};

/// Closure summary for one annotated root.
struct PurityRoot {
  std::string name;  ///< qualified name
  std::string file;
  int line = 0;               ///< definition line
  std::size_t reachable = 0;  ///< functions in the closure (incl. root)
  std::size_t audited = 0;    ///< closure members pruned as audited
  std::vector<PurityHit> hits;
};

struct PurityReport {
  std::vector<PurityRoot> roots;
  std::size_t functions_indexed = 0;
  std::size_t files_scanned = 0;
  /// Call names that resolved to no definition (std::, libc, ...).
  /// Not findings — kept for --json consumers sizing the blind spot.
  std::size_t unresolved_calls = 0;
};

/// Replaces `cfg->audited` with the entries of scripts/
/// purity_allowlist.json text ({"audited": [{"function", "reason"},
/// ...]}; an absent key is an empty list).  Returns false and sets
/// `*error` on malformed input.
bool parse_purity_allowlist_json(const std::string& text, PurityConfig* cfg,
                                 std::string* error);

/// The purity config of the tree at `root`, read from
/// <root>/scripts/purity_allowlist.json.  Returns false and sets
/// `*error`, naming the file, when it is missing, unreadable or
/// malformed.
bool load_purity_config(const std::string& root, PurityConfig* cfg,
                        std::string* error);

/// Runs the analysis over (path, content) pairs — read_sources() with
/// Gate::kPurity, or fixtures in tests.
PurityReport analyze_purity(
    const std::vector<std::pair<std::string, std::string>>& files,
    const PurityConfig& cfg);

/// True when no root reaches any deny token.
bool purity_clean(const PurityReport& report);

/// Serializes the report for tooling (mmhand_report): an object with
/// "tool", per-root closures, and the hit list with chains.
std::string purity_to_json(const PurityReport& report);

}  // namespace mmhand::lint
