// mmhand_lint — project-specific static analysis.
//
//   mmhand_lint [--root DIR] [--purity] [--json] [DIR|FILE]...
//
// Walks src/, tests/, bench/, and tools/ (or the given paths) under the
// repo root and enforces the invariants DESIGN.md's "Static analysis &
// correctness gates" section catalogues: getenv only behind the
// allowlist, no direct console I/O outside obs/ and the sanctioned eval
// printers, no irreproducible RNG, #pragma once + no using-directives in
// headers, no naked new[]/malloc, and every quoted MMHAND_* literal
// documented in the README env-var table.  The allowlists come from
// <root>/scripts/lint_allowlist.json and the env-var table from
// <root>/README.md; there is no built-in fallback.
//
// Findings print as `file:line: rule-id: message`; exit status is 0
// when clean, 1 with findings, 2 on usage/config errors (a missing
// config file included).  --json swaps the human output for a
// machine-readable report that mmhand_report ingests via --lint.
//
// --purity runs the hot-path purity analyzer instead (purity_core.hpp):
// call-graph closure from every MMHAND_REALTIME root over src/mmhand/**,
// reporting reachable heap allocation, locks, throws, I/O, and blocking
// syscalls with full call chains, minus the audited functions in
// <root>/scripts/purity_allowlist.json.  Exit 0 when every root is
// clean.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lint/lint_core.hpp"
#include "lint/purity_core.hpp"

namespace fs = std::filesystem;
namespace lint = mmhand::lint;

namespace {

int usage(int status) {
  std::fprintf(stderr,
               "usage: mmhand_lint [--root DIR] [--purity] [--json]"
               " [DIR|FILE]...\n");
  return status;
}

int config_error(const std::string& error) {
  std::fprintf(stderr, "mmhand_lint: %s\n", error.c_str());
  return 2;
}

int run_purity(const std::string& root,
               const std::vector<std::string>& targets, bool json_output) {
  lint::PurityConfig cfg;
  lint::Sources sources;
  std::string error;
  if (!lint::load_purity_config(root, &cfg, &error) ||
      !lint::read_sources(root, lint::Gate::kPurity, targets, &sources,
                          &error))
    return config_error(error);
  const lint::PurityReport report = lint::analyze_purity(sources, cfg);
  if (json_output) {
    const std::string body = lint::purity_to_json(report);
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
  return lint::purity_clean(report) ? 0 : 1;
}

int run_lint(const std::string& root, const std::vector<std::string>& targets,
             bool json_output) {
  lint::Config cfg;
  lint::Sources sources;
  std::string error;
  if (!lint::load_lint_config(root, &cfg, &error) ||
      !lint::read_sources(root, lint::Gate::kLint, targets, &sources,
                          &error))
    return config_error(error);
  const std::vector<lint::Finding> findings =
      lint::check_sources(sources, cfg);
  if (json_output) {
    const std::string body = lint::findings_to_json(findings, sources.size());
    std::fwrite(body.data(), 1, body.size(), stdout);
  } else {
    for (const lint::Finding& f : findings)
      std::printf("%s:%d: %s: %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
    std::fprintf(stderr, "mmhand_lint: %zu file(s), %zu finding(s)\n",
                 sources.size(), findings.size());
  }
  return findings.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  bool json_output = false;
  bool purity = false;
  std::vector<std::string> targets;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mmhand_lint: --root needs a value\n");
        return usage(2);
      }
      root = argv[++i];
    } else if (arg == "--json") {
      json_output = true;
    } else if (arg == "--purity") {
      purity = true;
    } else if (!arg.empty() && arg[0] != '-') {
      targets.push_back(arg);
    } else {
      return usage(arg == "-h" || arg == "--help" ? 0 : 2);
    }
  }
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "mmhand_lint: root %s is not a directory\n",
                 root.string().c_str());
    return 2;
  }
  const std::string canonical = fs::canonical(root).string();
  return purity ? run_purity(canonical, targets, json_output)
                : run_lint(canonical, targets, json_output);
}
