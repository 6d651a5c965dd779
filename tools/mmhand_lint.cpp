// mmhand_lint — project-specific static analysis.
//
//   mmhand_lint [--root DIR] [--allowlist FILE] [--readme FILE]
//               [--purity] [--purity-allowlist FILE] [--json]
//               [DIR|FILE]...
//
// Walks src/, tests/, bench/, and tools/ (or the given paths) under the
// repo root and enforces the invariants DESIGN.md's "Static analysis &
// correctness gates" section catalogues: getenv only behind the
// allowlist, no direct console I/O outside obs/ and the sanctioned eval
// printers, no irreproducible RNG outside common/rng, #pragma once +
// no using-directives in headers, no naked new[]/malloc, and every
// quoted MMHAND_* literal documented in the README env-var table.
//
// Findings print as `file:line: rule-id: message`; exit status is 0
// when clean, 1 with findings, 2 on usage/config errors.  --json
// swaps the human output for a machine-readable report that
// mmhand_report ingests via --lint.
//
// --purity runs the hot-path purity analyzer instead (purity_core.hpp):
// call-graph closure from every MMHAND_REALTIME root over src/mmhand/**,
// reporting reachable heap allocation, locks, throws, I/O, and blocking
// syscalls with full call chains.  Exit 0 when every root is clean.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lint/lint_core.hpp"
#include "lint/purity_core.hpp"
#include "top/top_core.hpp"

namespace fs = std::filesystem;
using mmhand::lint::Config;
using mmhand::lint::Finding;

namespace {

/// Every input goes through the tools' one reader (top_core).
bool slurp(const fs::path& path, std::string* out) {
  return mmhand::top::load_text(path.string(), out, nullptr);
}

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

/// Repo-relative path with forward slashes (the allowlist key format).
std::string rel_key(const fs::path& root, const fs::path& path) {
  return fs::relative(path, root).generic_string();
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string allowlist_path;  // default: <root>/scripts/lint_allowlist.json
  std::string readme_path;     // default: <root>/README.md
  std::string purity_allowlist_path;  // default: scripts/purity_allowlist.json
  bool json_output = false;
  bool purity = false;
  std::vector<std::string> targets;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--root") {
      if (const char* v = next()) root = v;
    } else if (arg == "--allowlist") {
      if (const char* v = next()) allowlist_path = v;
    } else if (arg == "--readme") {
      if (const char* v = next()) readme_path = v;
    } else if (arg == "--json") {
      json_output = true;
    } else if (arg == "--purity") {
      purity = true;
    } else if (arg == "--purity-allowlist") {
      if (const char* v = next()) purity_allowlist_path = v;
    } else if (!arg.empty() && arg[0] != '-') {
      targets.push_back(arg);
    } else {
      std::fprintf(stderr,
                   "usage: mmhand_lint [--root DIR] [--allowlist FILE]"
                   " [--readme FILE] [--purity] [--purity-allowlist FILE]"
                   " [--json] [DIR|FILE]...\n");
      return arg == "-h" || arg == "--help" ? 0 : 2;
    }
  }
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "mmhand_lint: root %s is not a directory\n",
                 root.string().c_str());
    return 2;
  }
  root = fs::canonical(root);

  if (purity) {
    mmhand::lint::PurityConfig pcfg = mmhand::lint::default_purity_config();
    const fs::path path =
        purity_allowlist_path.empty()
            ? root / "scripts" / "purity_allowlist.json"
            : fs::path(purity_allowlist_path);
    std::string text;
    if (slurp(path, &text)) {
      std::string error;
      if (!mmhand::lint::parse_purity_allowlist_json(text, &pcfg, &error)) {
        std::fprintf(stderr, "mmhand_lint: %s: %s\n", path.string().c_str(),
                     error.c_str());
        return 2;
      }
    } else if (!purity_allowlist_path.empty()) {
      std::fprintf(stderr, "mmhand_lint: cannot read purity allowlist %s\n",
                   path.string().c_str());
      return 2;
    }
    // Purity scans the library tree only (plus .inl kernel bodies);
    // positional targets, if any, narrow the file set for testing.
    std::vector<fs::path> files;
    std::vector<std::string> ptargets = targets;
    if (ptargets.empty()) ptargets = {"src/mmhand"};
    for (const std::string& target : ptargets) {
      const fs::path base = fs::path(target).is_absolute()
                                ? fs::path(target)
                                : root / target;
      if (fs::is_regular_file(base)) {
        files.push_back(base);
      } else if (fs::is_directory(base)) {
        for (const auto& entry : fs::recursive_directory_iterator(base)) {
          if (!entry.is_regular_file()) continue;
          const std::string ext = entry.path().extension().string();
          if (ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".inl")
            files.push_back(entry.path());
        }
      }
    }
    std::sort(files.begin(), files.end());
    std::vector<std::pair<std::string, std::string>> inputs;
    for (const fs::path& file : files) {
      std::string content;
      if (!slurp(file, &content)) {
        std::fprintf(stderr, "mmhand_lint: cannot read %s\n",
                     file.string().c_str());
        return 2;
      }
      inputs.emplace_back(rel_key(root, file), std::move(content));
    }
    const mmhand::lint::PurityReport report =
        mmhand::lint::analyze_purity(inputs, pcfg);
    if (json_output) {
      const std::string body = mmhand::lint::purity_to_json(report);
      std::fwrite(body.data(), 1, body.size(), stdout);
    } else {
      for (const auto& r : report.roots) {
        std::printf("%s:%d: root %s: %zu reachable, %zu audited, %zu"
                    " hit(s)\n",
                    r.file.c_str(), r.line, r.name.c_str(), r.reachable,
                    r.audited, r.hits.size());
        for (const auto& h : r.hits) {
          std::string chain;
          for (std::size_t i = 0; i < h.chain.size(); ++i)
            chain += (i == 0 ? "" : " -> ") + h.chain[i] + "()";
          std::printf("%s:%d: purity-%s: %s via %s\n", h.file.c_str(),
                      h.line, h.category.c_str(), h.token.c_str(),
                      chain.c_str());
        }
      }
      std::size_t hits = 0;
      for (const auto& r : report.roots) hits += r.hits.size();
      std::fprintf(stderr,
                   "mmhand_lint --purity: %zu file(s), %zu function(s),"
                   " %zu root(s), %zu hit(s)\n",
                   report.files_scanned, report.functions_indexed,
                   report.roots.size(), hits);
    }
    return mmhand::lint::purity_clean(report) ? 0 : 1;
  }

  if (targets.empty()) targets = {"src", "tests", "bench", "tools"};

  Config cfg = mmhand::lint::default_config();
  {
    const fs::path path = allowlist_path.empty()
                              ? root / "scripts" / "lint_allowlist.json"
                              : fs::path(allowlist_path);
    std::string text;
    if (slurp(path, &text)) {
      std::string error;
      if (!mmhand::lint::parse_allowlist_json(text, &cfg, &error)) {
        std::fprintf(stderr, "mmhand_lint: %s: %s\n", path.string().c_str(),
                     error.c_str());
        return 2;
      }
    } else if (!allowlist_path.empty()) {
      std::fprintf(stderr, "mmhand_lint: cannot read allowlist %s\n",
                   path.string().c_str());
      return 2;
    }
  }
  {
    const fs::path path = readme_path.empty() ? root / "README.md"
                                              : fs::path(readme_path);
    std::string text;
    if (slurp(path, &text)) {
      cfg.documented_env = mmhand::lint::extract_documented_env(text);
    } else {
      std::fprintf(stderr, "mmhand_lint: cannot read README %s\n",
                   path.string().c_str());
      return 2;
    }
  }

  std::vector<fs::path> files;
  for (const std::string& target : targets) {
    const fs::path base = fs::path(target).is_absolute() ? fs::path(target)
                                                         : root / target;
    if (fs::is_regular_file(base)) {
      files.push_back(base);
    } else if (fs::is_directory(base)) {
      for (const auto& entry : fs::recursive_directory_iterator(base))
        if (entry.is_regular_file() && lintable(entry.path()))
          files.push_back(entry.path());
    }
    // Absent targets are fine: a partial checkout still lints.
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  for (const fs::path& file : files) {
    std::string content;
    if (!slurp(file, &content)) {
      std::fprintf(stderr, "mmhand_lint: cannot read %s\n",
                   file.string().c_str());
      return 2;
    }
    const std::vector<Finding> file_findings =
        mmhand::lint::check_file(rel_key(root, file), content, cfg);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }

  if (json_output) {
    const std::string body =
        mmhand::lint::findings_to_json(findings, files.size());
    std::fwrite(body.data(), 1, body.size(), stdout);
  } else {
    for (const Finding& f : findings)
      std::printf("%s:%d: %s: %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
    std::fprintf(stderr, "mmhand_lint: %zu file(s), %zu finding(s)\n",
                 files.size(), findings.size());
  }
  return findings.empty() ? 0 : 1;
}
