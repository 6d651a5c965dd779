// mmhand_report — merges the observability outputs of a run into one
// Markdown report:
//
//   mmhand_report [--runlog FILE] [--metrics FILE] [--bench FILE]...
//                 [--history FILE] [--lint FILE] [-o OUT.md]
//
//   --runlog   a JSONL run log written via MMHAND_RUN_LOG (manifest /
//              epoch / eval / anomaly records)
//   --metrics  a metrics snapshot written via MMHAND_METRICS
//   --roofline with --metrics: add a per-stage roofline table joining
//              span wall time with the `<stage>.flops`/`<stage>.bytes`
//              cost counters (GFLOP/s, arithmetic intensity) and, when
//              the run had MMHAND_PMU=1 on capable hardware, IPC and
//              cache-miss rates from the `pmu/*` counters; clock-only
//              otherwise (a note, never an error)
//   --bench    any BENCH_*.json (repeatable); bench_throughput's format
//              gets a per-op table, others a one-line summary
//   --history  a bench/history.jsonl appended by
//              `check_bench.py --append-history`; renders a per-op
//              latency trend across runs (oldest → newest)
//   --lint     a `mmhand_lint --json` report; renders a "Static
//              analysis" section (rule counts or a zero-findings badge)
//   -o         output path (default: stdout)
//
// Every input loads through tools/top/top_core's reader: a JSONL
// input's torn final line (a killed writer) is skipped, interior
// unparseable lines draw a warning.
//
// Sections: run manifest, loss curve (per-epoch loss / lr / grad norm /
// throughput), evaluations, numerical anomalies, stage latency breakdown
// (from metrics histograms), bench results, bench trend, and static
// analysis.  Inputs are optional; absent ones are skipped, so the tool
// is usable after any subset of MMHAND_RUN_LOG / MMHAND_METRICS / bench
// / lint runs.

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mmhand/common/json.hpp"
#include "top/top_core.hpp"

namespace {

using mmhand::json::Value;
using mmhand::top::load_json;

std::string fmt(double v, int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

/// Markdown-renders one parsed run log.
void report_runlog(const std::vector<Value>& records, std::ostream& os) {
  // Manifest(s).
  for (const Value& r : records) {
    if (r.string_or("kind", "") != "manifest") continue;
    os << "## Run manifest\n\n| field | value |\n|---|---|\n";
    for (const auto& [key, v] : r.as_object()) {
      if (key == "kind") continue;
      os << "| " << key << " | ";
      if (v.is_number())
        os << fmt(v.as_number(), v.as_number() == static_cast<long long>(
                                                      v.as_number())
                                     ? 0
                                     : 6);
      else if (v.is_string())
        os << v.as_string();
      else if (v.is_bool())
        os << (v.as_bool() ? "true" : "false");
      os << " |\n";
    }
    os << "\n";
  }

  // Loss curve.
  bool header = false;
  for (const Value& r : records) {
    if (r.string_or("kind", "") != "epoch") continue;
    if (!header) {
      os << "## Loss curve\n\n"
         << "| epoch | loss | lr_scale | grad L2 | wall s | samples/s |"
            " grad nan/inf |\n|---|---|---|---|---|---|---|\n";
      header = true;
    }
    std::size_t nan = 0, inf = 0;
    if (const Value* params = r.find("params"); params != nullptr &&
                                                params->is_object()) {
      for (const auto& [name, group] : params->as_object()) {
        if (const Value* g = group.find("grad"); g != nullptr) {
          nan += static_cast<std::size_t>(g->number_or("nan", 0.0));
          inf += static_cast<std::size_t>(g->number_or("inf", 0.0));
        }
      }
    }
    os << "| " << static_cast<int>(r.number_or("epoch", -1)) << " | "
       << fmt(r.number_or("loss", 0.0), 6) << " | "
       << fmt(r.number_or("lr_scale", 0.0), 4) << " | "
       << fmt(r.number_or("grad_norm", 0.0), 4) << " | "
       << fmt(r.number_or("wall_s", 0.0), 2) << " | "
       << fmt(r.number_or("samples_per_s", 0.0), 1) << " | " << nan << "/"
       << inf << " |\n";
  }
  if (header) os << "\n";

  // Evaluations.
  header = false;
  for (const Value& r : records) {
    if (r.string_or("kind", "") != "eval") continue;
    if (!header) {
      os << "## Evaluations\n\n"
         << "| label | user | frames | MPJPE mm | palm | fingers |"
            " PCK@40 |\n|---|---|---|---|---|---|---|\n";
      header = true;
    }
    double pck40 = 0.0;
    if (const Value* pck = r.find("pck"); pck != nullptr)
      pck40 = pck->number_or("40", 0.0);
    os << "| " << r.string_or("label", "?") << " | "
       << static_cast<int>(r.number_or("user", -1)) << " | "
       << static_cast<int>(r.number_or("frames", 0)) << " | "
       << fmt(r.number_or("mpjpe_mm", 0.0), 1) << " | "
       << fmt(r.number_or("mpjpe_palm_mm", 0.0), 1) << " | "
       << fmt(r.number_or("mpjpe_fingers_mm", 0.0), 1) << " | "
       << fmt(pck40, 1) << " |\n";
  }
  if (header) os << "\n";

  // Anomalies.
  std::size_t anomalies = 0;
  for (const Value& r : records)
    if (r.string_or("kind", "") == "anomaly") ++anomalies;
  os << "## Numerical anomalies\n\n";
  if (anomalies == 0) {
    os << "None recorded.\n\n";
  } else {
    os << anomalies << " anomalie(s):\n\n| t_ms | site | what | detail |\n"
       << "|---|---|---|---|\n";
    for (const Value& r : records) {
      if (r.string_or("kind", "") != "anomaly") continue;
      os << "| " << fmt(r.number_or("t_ms", 0.0), 1) << " | "
         << r.string_or("site", "?") << " | " << r.string_or("what", "?")
         << " | " << r.string_or("detail", "") << " |\n";
    }
    os << "\n";
  }
}

/// Stage latency / counter section from a metrics snapshot.
void report_metrics(const Value& snapshot, std::ostream& os) {
  os << "## Metrics snapshot\n\n";
  if (const Value* counters = snapshot.find("counters");
      counters != nullptr && counters->is_object() &&
      !counters->as_object().empty()) {
    os << "| counter | value |\n|---|---|\n";
    for (const auto& [name, v] : counters->as_object())
      os << "| " << name << " | " << fmt(v.as_number(), 0) << " |\n";
    os << "\n";
  }
  if (const Value* gauges = snapshot.find("gauges");
      gauges != nullptr && gauges->is_object() &&
      !gauges->as_object().empty()) {
    os << "| gauge | value |\n|---|---|\n";
    for (const auto& [name, v] : gauges->as_object())
      os << "| " << name << " | " << fmt(v.as_number(), 4) << " |\n";
    os << "\n";
  }
  if (const Value* hists = snapshot.find("histograms");
      hists != nullptr && hists->is_object() &&
      !hists->as_object().empty()) {
    os << "### Stage latency breakdown (span histograms, µs)\n\n"
       << "| stage | count | mean | p50 | p95 | p99 | max |\n"
       << "|---|---|---|---|---|---|---|\n";
    for (const auto& [name, h] : hists->as_object()) {
      os << "| " << name << " | " << fmt(h.number_or("count", 0), 0)
         << " | " << fmt(h.number_or("mean", 0.0), 1) << " | "
         << fmt(h.number_or("p50", 0.0), 1) << " | "
         << fmt(h.number_or("p95", 0.0), 1) << " | "
         << fmt(h.number_or("p99", 0.0), 1) << " | "
         << fmt(h.number_or("max", 0.0), 1) << " |\n";
    }
    os << "\n";
  }
}

/// Roofline / efficiency section: joins each stage's span histogram
/// (wall time) with its `<stage>.flops` / `<stage>.bytes` cost counters
/// and, when present, the `pmu/<stage>.*` hardware counters.  Without
/// PMU data (perf_event unavailable, or MMHAND_PMU unset) the table
/// degrades to the clock-only columns — a note, not an error.
void report_roofline(const Value& snapshot, std::ostream& os) {
  os << "## Roofline & efficiency\n\n";
  const Value* counters = snapshot.find("counters");
  const Value* hists = snapshot.find("histograms");
  if (counters == nullptr || !counters->is_object() || hists == nullptr ||
      !hists->is_object()) {
    os << "No counters/histograms in this snapshot; run with "
          "MMHAND_METRICS set.\n\n";
    return;
  }
  const auto counter_of = [&](const std::string& name) -> double {
    const Value* v = counters->find(name);
    return v != nullptr && v->is_number() ? v->as_number() : 0.0;
  };
  // Stages are whatever published a `<stage>.flops` counter.
  std::vector<std::string> stages;
  for (const auto& [name, v] : counters->as_object()) {
    const std::string suffix = ".flops";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0)
      stages.push_back(name.substr(0, name.size() - suffix.size()));
  }
  if (stages.empty()) {
    os << "No `<stage>.flops` cost counters in this snapshot.\n\n";
    return;
  }
  bool any_pmu = false;
  for (const std::string& stage : stages)
    if (counter_of("pmu/" + stage + ".cycles") > 0.0) any_pmu = true;

  os << "| stage | wall s | GFLOP | GB | AI flop/B | GFLOP/s |";
  if (any_pmu) os << " IPC | miss/kI |";
  os << "\n|---|---|---|---|---|---|";
  if (any_pmu) os << "---|---|";
  os << "\n";
  for (const std::string& stage : stages) {
    const double flops = counter_of(stage + ".flops");
    const double bytes = counter_of(stage + ".bytes");
    double wall_s = 0.0;
    if (const Value* h = hists->find(stage);
        h != nullptr && h->is_object())
      wall_s = h->number_or("count", 0.0) * h->number_or("mean", 0.0) / 1e6;
    os << "| " << stage << " | " << fmt(wall_s, 3) << " | "
       << fmt(flops / 1e9, 3) << " | " << fmt(bytes / 1e9, 3) << " | "
       << (bytes > 0.0 ? fmt(flops / bytes, 2) : std::string("?")) << " | "
       << (wall_s > 0.0 ? fmt(flops / wall_s / 1e9, 2) : std::string("?"))
       << " |";
    if (any_pmu) {
      const double cycles = counter_of("pmu/" + stage + ".cycles");
      const double instr = counter_of("pmu/" + stage + ".instructions");
      const double misses = counter_of("pmu/" + stage + ".cache_misses");
      os << " "
         << (cycles > 0.0 ? fmt(instr / cycles, 2) : std::string("?"))
         << " | "
         << (instr > 0.0 ? fmt(misses / (instr / 1e3), 2)
                         : std::string("?"))
         << " |";
    }
    os << "\n";
  }
  os << "\n";
  if (!any_pmu)
    os << "_No `pmu/*` hardware counters in this snapshot (MMHAND_PMU "
          "unset, or perf_event unavailable on this host) — clock-only "
          "view._\n\n";
}

void report_bench(const std::string& path, const Value& bench,
                  std::ostream& os) {
  os << "## Bench: " << bench.string_or("bench", path) << "\n\n";
  if (const Value* results = bench.find("results");
      results != nullptr && results->is_array()) {
    os << "| op | threads | ms |\n|---|---|---|\n";
    for (const Value& r : results->as_array())
      os << "| " << r.string_or("op", "?") << " | "
         << static_cast<int>(r.number_or("threads", 0)) << " | "
         << fmt(r.number_or("ms", 0.0), 4) << " |\n";
    os << "\n";
    if (const Value* speedup = bench.find("speedup_4t");
        speedup != nullptr && speedup->is_object()) {
      os << "| op | speedup @4t |\n|---|---|\n";
      for (const auto& [op, s] : speedup->as_object())
        os << "| " << op << " | " << fmt(s.as_number(), 3) << "x |\n";
      os << "\n";
    }
  } else {
    os << "(no `results` array; keys:";
    if (bench.is_object())
      for (const auto& [key, v] : bench.as_object()) os << " " << key;
    os << ")\n\n";
  }
}

/// ASCII trend of `values` (oldest → newest), one glyph per run:
/// '_' bottom quartile of the observed range, '-' middle, '^' top.
std::string trend_glyphs(const std::vector<double>& values) {
  double lo = 1e300, hi = 0.0;
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (const double v : values) {
    if (hi <= lo) {
      out += '-';
      continue;
    }
    const double t = (v - lo) / (hi - lo);
    out += t < 0.25 ? '_' : (t > 0.75 ? '^' : '-');
  }
  return out;
}

/// "Bench trend" section from a history JSONL (one record per bench
/// run; see check_bench.py --append-history for the writer).
void report_history(const std::vector<Value>& records, std::ostream& os) {
  os << "## Bench trend\n\n";
  if (records.empty()) {
    os << "No history records.\n\n";
    return;
  }
  const auto day_of = [](const Value& r) -> std::string {
    const double ts = r.number_or("timestamp", 0.0);
    if (ts <= 0.0) return "?";
    const std::time_t t = static_cast<std::time_t>(ts);
    std::tm tm{};
    if (gmtime_r(&t, &tm) == nullptr) return "?";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", tm.tm_year + 1900,
                  tm.tm_mon + 1, tm.tm_mday);
    return buf;
  };
  os << records.size() << " run(s), " << day_of(records.front()) << " → "
     << day_of(records.back()) << ".\n\n";
  // Collect per-op series in first-seen order; ops are keyed
  // "op@threads" by the writer, and runs missing an op are skipped for
  // that series (ISA changes re-key via the simd suffix the writer
  // adds, so incompatible runs never merge into one series).
  std::vector<std::string> order;
  std::map<std::string, std::vector<double>> series;
  for (const Value& r : records) {
    const Value* ops = r.find("ops");
    if (ops == nullptr || !ops->is_object()) continue;
    for (const auto& [key, v] : ops->as_object()) {
      if (series.find(key) == series.end()) order.push_back(key);
      series[key].push_back(v.as_number());
    }
  }
  if (order.empty()) {
    os << "(no `ops` objects in history records)\n\n";
    return;
  }
  os << "| op | runs | oldest ms | newest ms | best ms | Δ newest/best |"
        " trend |\n|---|---|---|---|---|---|---|\n";
  for (const std::string& key : order) {
    const std::vector<double>& v = series[key];
    double best = 1e300;
    for (const double ms : v) best = std::min(best, ms);
    os << "| " << key << " | " << v.size() << " | " << fmt(v.front(), 4)
       << " | " << fmt(v.back(), 4) << " | " << fmt(best, 4) << " | "
       << (best > 0.0 ? fmt(v.back() / best, 2) + "x" : "?") << " | `"
       << trend_glyphs(v) << "` |\n";
  }
  os << "\n";
}

/// "Static analysis" section from a `mmhand_lint --json` report.
void report_lint(const Value& lint, std::ostream& os) {
  os << "## Static analysis\n\n";
  const int files = static_cast<int>(lint.number_or("files_scanned", 0));
  const Value* findings = lint.find("findings");
  const std::size_t total =
      findings != nullptr && findings->is_array()
          ? findings->as_array().size()
          : 0;
  if (total == 0) {
    os << "**mmhand_lint: clean** — 0 findings across " << files
       << " file(s).\n\n";
    return;
  }
  os << "mmhand_lint: **" << total << " finding(s)** across " << files
     << " file(s).\n\n";
  if (const Value* counts = lint.find("counts");
      counts != nullptr && counts->is_object()) {
    os << "| rule | findings |\n|---|---|\n";
    for (const auto& [rule, n] : counts->as_object())
      os << "| " << rule << " | " << fmt(n.as_number(), 0) << " |\n";
    os << "\n";
  }
  os << "| file | line | rule | message |\n|---|---|---|---|\n";
  for (const Value& f : findings->as_array())
    os << "| " << f.string_or("file", "?") << " | "
       << static_cast<int>(f.number_or("line", 0)) << " | "
       << f.string_or("rule", "?") << " | " << f.string_or("message", "")
       << " |\n";
  os << "\n";
}

/// "Hot-path purity" section from `mmhand_lint --purity --json` plus an
/// optional `mmhand_purity_probe --json` runtime figure.
void report_purity(const Value& purity, const Value* probe,
                   std::ostream& os) {
  os << "## Hot-path purity\n\n";
  const int hits = static_cast<int>(purity.number_or("total_hits", 0));
  const Value* roots = purity.find("roots");
  const std::size_t n_roots =
      roots != nullptr && roots->is_array() ? roots->as_array().size() : 0;
  if (hits == 0) {
    os << "**mmhand_lint --purity: clean** — no deny-class token reachable"
       << " from any of the " << n_roots << " MMHAND_REALTIME root(s).\n\n";
  } else {
    os << "mmhand_lint --purity: **" << hits << " deny hit(s)** across "
       << n_roots << " root(s).\n\n";
  }
  if (n_roots > 0) {
    os << "| root | file | reachable | audited | deny hits |\n"
       << "|---|---|---|---|---|\n";
    for (const Value& r : roots->as_array()) {
      const Value* rh = r.find("hits");
      const std::size_t nh =
          rh != nullptr && rh->is_array() ? rh->as_array().size() : 0;
      os << "| `" << r.string_or("root", "?") << "` | "
         << r.string_or("file", "?") << " | "
         << static_cast<int>(r.number_or("reachable", 0)) << " | "
         << static_cast<int>(r.number_or("audited", 0)) << " | " << nh
         << (nh == 0 ? " ✓" : " ✗") << " |\n";
    }
    os << "\n";
    for (const Value& r : roots->as_array()) {
      const Value* rh = r.find("hits");
      if (rh == nullptr || !rh->is_array()) continue;
      for (const Value& h : rh->as_array()) {
        os << "- `" << h.string_or("token", "?") << "` ("
           << h.string_or("category", "?") << ") at "
           << h.string_or("file", "?") << ":"
           << static_cast<int>(h.number_or("line", 0)) << " via `";
        if (const Value* chain = h.find("chain");
            chain != nullptr && chain->is_array()) {
          bool first = true;
          for (const Value& link : chain->as_array()) {
            if (!first) os << " -> ";
            os << link.string_or("", "?");
            first = false;
          }
        }
        os << "`\n";
      }
    }
    if (hits > 0) os << "\n";
  }
  if (probe != nullptr) {
    const Value* radar = probe->find("radar");
    const Value* pose = probe->find("pose");
    const int frames =
        std::max(1, static_cast<int>(probe->number_or("frames", 1)));
    os << "Runtime probe (`mmhand_purity_probe`, isa "
       << probe->string_or("isa", "?") << ", " << frames
       << " steady-state frame(s)): radar "
       << fmt(radar != nullptr ? radar->number_or("allocs", -1) /
                                     static_cast<double>(frames)
                               : -1.0,
              3)
       << " alloc(s)/frame, pose "
       << fmt(pose != nullptr ? pose->number_or("allocs", -1) /
                                    static_cast<double>(frames)
                              : -1.0,
              1)
       << " alloc(s)/forward (reported, not gated).\n\n";
  }
}

/// "Serving" section from mmhand_soak JSON reports (soak and/or parity
/// mode; scripts/check_serve.sh gates on the same fields).
void report_serve(const std::vector<std::pair<std::string, Value>>& runs,
                  std::ostream& os) {
  os << "## Serving\n\n";
  for (const auto& [path, r] : runs) {
    const Value* pv = r.find("pass");
    const bool pass = pv != nullptr && pv->is_bool() && pv->as_bool();
    const std::string mode = r.string_or("mode", "?");
    if (mode == "soak") {
      os << "**Chaos soak** (`" << path << "`): "
         << (pass ? "all invariants hold" : "**INVARIANT VIOLATION**")
         << "\n\n| field | value |\n|---|---|\n"
         << "| sessions x overload | "
         << static_cast<int>(r.number_or("sessions", 0)) << " x "
         << static_cast<int>(r.number_or("overload", 0)) << " |\n"
         << "| windows completed / shed / missed | "
         << static_cast<long long>(r.number_or("completed", 0)) << " / "
         << static_cast<long long>(r.number_or("shed", 0)) << " / "
         << static_cast<long long>(r.number_or("missed", 0)) << " |\n"
         << "| degraded drops / client retries | "
         << static_cast<long long>(r.number_or("degraded", 0)) << " / "
         << static_cast<long long>(r.number_or("retries", 0)) << " |\n"
         << "| faults (churn/burst/stall) | "
         << static_cast<long long>(r.number_or("churns", 0)) << " / "
         << static_cast<long long>(r.number_or("bursts", 0)) << " / "
         << static_cast<long long>(r.number_or("stalls", 0)) << " |\n"
         << "| deadline compliance | "
         << fmt(r.number_or("compliance", 0.0), 4) << " |\n"
         << "| e2e p50 / p95 / p99 (µs) | "
         << fmt(r.number_or("e2e_p50_us", 0.0), 1) << " / "
         << fmt(r.number_or("e2e_p95_us", 0.0), 1) << " / "
         << fmt(r.number_or("e2e_p99_us", 0.0), 1) << " |\n"
         << "| max ready depth / starved sessions | "
         << static_cast<long long>(r.number_or("max_ready_depth", 0))
         << " / "
         << static_cast<long long>(r.number_or("starved_sessions", 0))
         << " |\n\n";
    } else if (mode == "parity") {
      os << "**Drained parity** (`" << path << "`, "
         << static_cast<int>(r.number_or("threads", 0)) << " thread(s)): "
         << static_cast<long long>(r.number_or("compared", 0))
         << " floats compared, "
         << static_cast<long long>(r.number_or("mismatched", 0))
         << " mismatched — "
         << (pass ? "bitwise identical to the offline pipeline"
                  : "**PARITY BROKEN**")
         << "\n\n";
    } else {
      os << "(`" << path << "`: unknown mode \"" << mode << "\")\n\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string runlog_path, metrics_path, lint_path, history_path, out_path;
  std::string purity_path, probe_path;
  std::vector<std::string> bench_paths;
  std::vector<std::string> serve_paths;
  bool roofline = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--runlog") {
      if (const char* v = next()) runlog_path = v;
    } else if (arg == "--metrics") {
      if (const char* v = next()) metrics_path = v;
    } else if (arg == "--roofline") {
      roofline = true;
    } else if (arg == "--bench") {
      if (const char* v = next()) bench_paths.push_back(v);
    } else if (arg == "--serve") {
      if (const char* v = next()) serve_paths.push_back(v);
    } else if (arg == "--history") {
      if (const char* v = next()) history_path = v;
    } else if (arg == "--lint") {
      if (const char* v = next()) lint_path = v;
    } else if (arg == "--purity") {
      if (const char* v = next()) purity_path = v;
    } else if (arg == "--probe") {
      if (const char* v = next()) probe_path = v;
    } else if (arg == "-o" || arg == "--out") {
      if (const char* v = next()) out_path = v;
    } else {
      std::fprintf(stderr,
                   "usage: mmhand_report [--runlog FILE] [--metrics FILE]"
                   " [--roofline] [--bench FILE]... [--serve FILE]..."
                   " [--history FILE] [--lint FILE] [--purity FILE]"
                   " [--probe FILE] [-o OUT.md]\n");
      return arg == "-h" || arg == "--help" ? 0 : 2;
    }
  }

  if (roofline && metrics_path.empty()) {
    std::fprintf(stderr, "--roofline needs --metrics FILE\n");
    return 2;
  }
  if (!probe_path.empty() && purity_path.empty()) {
    std::fprintf(stderr, "--probe needs --purity FILE\n");
    return 2;
  }

  std::ostringstream os;
  os << "# mmHand run report\n\n";
  int inputs = 0;
  // Every input loads through top_core's one reader.  A JSONL input's
  // torn final line (a killed writer) is skipped; unparseable interior
  // lines are counted in a warning.
  std::string error;
  const auto fail = [&] {
    std::fprintf(stderr, "mmhand_report: %s\n", error.c_str());
    return 1;
  };
  const auto load_jsonl = [&](const std::string& path,
                              mmhand::top::ParsedStream* stream) {
    if (!mmhand::top::load_jsonl(path, stream, &error)) return false;
    if (stream->bad_lines > 0)
      std::fprintf(stderr, "warning: %zu unparseable line(s) in %s\n",
                   stream->bad_lines, path.c_str());
    return true;
  };

  if (!runlog_path.empty()) {
    mmhand::top::ParsedStream runlog;
    if (!load_jsonl(runlog_path, &runlog)) return fail();
    report_runlog(runlog.records, os);
    ++inputs;
  }

  if (!metrics_path.empty()) {
    Value snapshot;
    if (!load_json(metrics_path, &snapshot, &error)) return fail();
    report_metrics(snapshot, os);
    if (roofline) report_roofline(snapshot, os);
    ++inputs;
  }

  for (const std::string& path : bench_paths) {
    Value bench;
    if (!load_json(path, &bench, &error)) return fail();
    report_bench(path, bench, os);
    ++inputs;
  }

  if (!serve_paths.empty()) {
    std::vector<std::pair<std::string, Value>> runs;
    for (const std::string& path : serve_paths) {
      Value run;
      if (!load_json(path, &run, &error)) return fail();
      runs.emplace_back(path, std::move(run));
    }
    report_serve(runs, os);
    ++inputs;
  }

  if (!history_path.empty()) {
    mmhand::top::ParsedStream history;
    if (!load_jsonl(history_path, &history)) return fail();
    report_history(history.records, os);
    ++inputs;
  }

  if (!lint_path.empty()) {
    Value lint;
    if (!load_json(lint_path, &lint, &error)) return fail();
    report_lint(lint, os);
    ++inputs;
  }

  if (!purity_path.empty()) {
    Value purity, probe;
    if (!load_json(purity_path, &purity, &error) ||
        (!probe_path.empty() && !load_json(probe_path, &probe, &error)))
      return fail();
    report_purity(purity, probe_path.empty() ? nullptr : &probe, os);
    ++inputs;
  }

  if (inputs == 0) {
    std::fprintf(stderr,
                 "nothing to report: pass --runlog, --metrics, --bench,"
                 " --lint, or --purity\n");
    return 2;
  }

  const std::string body = os.str();
  if (out_path.empty()) {
    std::fwrite(body.data(), 1, body.size(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return 0;
}
