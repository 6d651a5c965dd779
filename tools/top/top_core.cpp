#include "top/top_core.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <utility>

namespace mmhand::top {

namespace {

using mmhand::json::Value;

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n),
                                      sizeof(buf) - 1));
}

/// 8-level unicode sparkline of `values` normalized to their own max.
std::string sparkline(const std::vector<double>& values) {
  static const char* kBlocks[8] = {"▁", "▂", "▃", "▄",
                                   "▅", "▆", "▇", "█"};
  double hi = 0.0;
  for (const double v : values) hi = std::max(hi, v);
  std::string out;
  for (const double v : values) {
    if (hi <= 0.0) {
      out += kBlocks[0];
      continue;
    }
    out += kBlocks[std::min(7, static_cast<int>(v / hi * 7.999))];
  }
  return out;
}

/// Nearest-rank percentile of an already-sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct StageWindow {
  std::vector<double> p95_series;  ///< one point per interval (0 = idle)
  const Value* newest = nullptr;   ///< stats of the newest active interval
  double total_count = 0.0;        ///< events across the window
};

/// The newest `last` telemetry intervals folded into per-stage windows
/// and counter (total, delta sum) pairs, keeping names `keep` accepts.
struct IntervalFold {
  std::size_t begin = 0, total = 0;  ///< window = intervals [begin, total)
  std::vector<const Value*> window;
  double window_ms = 0.0;
  std::map<std::string, StageWindow> stages;
  std::map<std::string, std::pair<double, double>> counters;
};

IntervalFold fold_intervals(
    const ParsedStream& stream, std::size_t last,
    const std::function<bool(const std::string&)>& keep) {
  IntervalFold f;
  std::vector<const Value*> records;
  for (const Value& v : stream.records)
    if (v.string_or("kind", "") == "telemetry") records.push_back(&v);
  f.total = records.size();
  f.begin = records.size() > last ? records.size() - last : 0;
  f.window.assign(records.begin() + static_cast<std::ptrdiff_t>(f.begin),
                  records.end());
  for (std::size_t i = 0; i < f.window.size(); ++i) {
    const Value& r = *f.window[i];
    f.window_ms += r.number_or("dt_ms", 0.0);
    if (const Value* st = r.find("stages"); st != nullptr && st->is_object())
      for (const auto& [name, h] : st->as_object()) {
        if (!keep(name)) continue;
        StageWindow& w = f.stages[name];
        w.p95_series.resize(f.window.size(), 0.0);
        w.p95_series[i] = h.number_or("p95_us", 0.0);
        w.newest = &h;
        w.total_count += h.number_or("count", 0.0);
      }
    if (const Value* cs = r.find("counters"); cs != nullptr && cs->is_object())
      for (const auto& [name, c] : cs->as_object()) {
        if (!keep(name)) continue;
        f.counters[name].first = c.number_or("total", 0.0);
        f.counters[name].second += c.number_or("delta", 0.0);
      }
  }
  return f;
}

/// Stage table with a p95 sparkline across the window.
void append_stage_table(std::string& out, IntervalFold& f,
                        const char* title) {
  appendf(out, "%-28s %8s %9s %9s %9s %9s  %s\n", title, "ev/s",
          "mean us", "p50 us", "p95 us", "p99 us", "p95 trend");
  for (auto& [name, w] : f.stages) {
    w.p95_series.resize(f.window.size(), 0.0);
    const double rate =
        f.window_ms > 0.0 ? w.total_count / (f.window_ms / 1e3) : 0.0;
    const Value& h = *w.newest;
    appendf(out, "%-28s %8.1f %9.1f %9.1f %9.1f %9.1f  %s\n", name.c_str(),
            rate, h.number_or("mean_us", 0.0), h.number_or("p50_us", 0.0),
            h.number_or("p95_us", 0.0), h.number_or("p99_us", 0.0),
            sparkline(w.p95_series).c_str());
  }
  out += "\n";
}

/// Counter rates over the window (delta sums / wall time).
void append_counter_table(std::string& out, const IntervalFold& f) {
  appendf(out, "%-28s %12s %10s\n", "counter", "total", "per s");
  for (const auto& [name, tc] : f.counters)
    appendf(out, "%-28s %12.0f %10.1f\n", name.c_str(), tc.first,
            f.window_ms > 0.0 ? tc.second / (f.window_ms / 1e3) : 0.0);
  out += "\n";
}

void append_bad_lines(std::string& out, const ParsedStream& stream) {
  if (stream.bad_lines > 0)
    appendf(out, "warning: %zu unparseable interior line%s skipped\n",
            stream.bad_lines, stream.bad_lines == 1 ? "" : "s");
}

}  // namespace

ParsedStream parse_jsonl(const std::string& text) {
  ParsedStream out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    const bool terminated = nl != std::string::npos;
    if (!terminated) nl = text.size();
    if (nl > pos) {
      const std::string line = text.substr(pos, nl - pos);
      std::string err;
      Value v = Value::parse(line, &err);
      if (err.empty() && v.is_object()) {
        out.records.push_back(std::move(v));
      } else if (!terminated) {
        out.torn_tail = true;
      } else {
        ++out.bad_lines;
      }
    }
    pos = nl + 1;
  }
  return out;
}

bool load_text(const std::string& path, std::string* text,
               std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  std::ostringstream os;
  os << in.rdbuf();
  *text = os.str();
  return true;
}

bool load_jsonl(const std::string& path, ParsedStream* out,
                std::string* error) {
  std::string text;
  if (!load_text(path, &text, error)) return false;
  *out = parse_jsonl(text);
  return true;
}

bool load_json(const std::string& path, json::Value* out,
               std::string* error) {
  std::string text, err;
  if (!load_text(path, &text, error)) return false;
  *out = Value::parse(text, &err);
  if (err.empty()) return true;
  if (error != nullptr) *error = path + ": " + err;
  return false;
}

std::string render_intervals(const ParsedStream& stream,
                             const std::string& source, std::size_t last) {
  IntervalFold f =
      fold_intervals(stream, last, [](const std::string&) { return true; });
  if (f.window.empty()) return {};
  const Value& newest = *f.window.back();

  std::string out;
  appendf(out,
          "%s — interval %zu..%zu of %zu, window %.1f s, "
          "breach_total %lld\n",
          source.c_str(), f.begin + 1, f.total, f.total, f.window_ms / 1e3,
          static_cast<long long>(newest.number_or("breach_total", 0)));
  append_bad_lines(out, stream);
  out += "\n";
  if (!f.stages.empty()) append_stage_table(out, f, "stage");
  if (!f.counters.empty()) append_counter_table(out, f);

  // Fault injections, when the fault harness is live.
  if (const Value* faults = newest.find("faults");
      faults != nullptr && faults->is_object() &&
      !faults->as_object().empty()) {
    appendf(out, "%-28s %12s\n", "fault kind", "injected");
    for (const auto& [name, fv] : faults->as_object())
      appendf(out, "%-28s %12.0f\n", name.c_str(),
              fv.number_or("total", 0.0));
    out += "\n";
  }

  // Budget breaches anywhere in the window.
  std::size_t breaches = 0;
  for (const Value* r : f.window) {
    const Value* bs = r->find("breaches");
    if (bs == nullptr || !bs->is_array()) continue;
    for (const Value& b : bs->as_array()) {
      if (breaches == 0)
        appendf(out, "%-28s %-10s %12s %12s\n", "budget breach", "field",
                "limit us", "actual us");
      ++breaches;
      appendf(out, "%-28s %-10s %12.1f %12.1f\n",
              b.string_or("stage", "?").c_str(),
              b.string_or("field", "?").c_str(), b.number_or("limit", 0.0),
              b.number_or("actual", 0.0));
    }
  }
  if (breaches == 0) out += "no budget breaches in window\n";
  return out;
}

std::string render_serve(const ParsedStream& stream,
                         const std::string& source, std::size_t last) {
  const auto is_serve = [](const std::string& name) {
    return name.rfind("serve/", 0) == 0;
  };
  IntervalFold f = fold_intervals(stream, last, is_serve);
  if (f.window.empty()) return {};

  std::map<std::string, double> gauges;
  if (const Value* gs = f.window.back()->find("gauges");
      gs != nullptr && gs->is_object())
    for (const auto& [name, gv] : gs->as_object())
      if (is_serve(name) && gv.is_number()) gauges[name] = gv.as_number();

  if (f.stages.empty() && f.counters.empty() && gauges.empty()) return {};

  std::string out;
  appendf(out, "%s — serving plane, interval %zu..%zu of %zu, "
               "window %.1f s\n",
          source.c_str(), f.begin + 1, f.total, f.total, f.window_ms / 1e3);
  append_bad_lines(out, stream);
  out += "\n";

  if (!gauges.empty()) {
    static const char* kTierNames[] = {"full", "no_mesh", "pose_only"};
    appendf(out, "%-28s %12s\n", "gauge", "now");
    for (const auto& [name, v] : gauges) {
      if (name == "serve/tier") {
        const int t = static_cast<int>(v);
        appendf(out, "%-28s %12s\n", name.c_str(),
                t >= 0 && t < 3 ? kTierNames[t] : "?");
      } else {
        appendf(out, "%-28s %12.0f\n", name.c_str(), v);
      }
    }
    out += "\n";
  }
  if (!f.counters.empty()) append_counter_table(out, f);
  if (!f.stages.empty()) append_stage_table(out, f, "latency");
  return out;
}

std::string render_tail(const ParsedStream& stream,
                        const std::string& source) {
  // One frame record = {frame_id, label, total_us, stages:{name:{us}}}.
  struct Frame {
    double total_us = 0.0;
    const Value* stages = nullptr;
  };
  std::map<std::string, std::vector<Frame>> by_label;
  for (const Value& v : stream.records) {
    if (v.string_or("kind", "") != "frame") continue;
    by_label[v.string_or("label", "?")].push_back(
        {v.number_or("total_us", 0.0), v.find("stages")});
  }
  if (by_label.empty()) return {};

  std::string out;
  std::size_t total_frames = 0;
  for (const auto& [label, frames] : by_label) total_frames += frames.size();
  appendf(out, "%s — tail attribution over %zu frame record%s\n",
          source.c_str(), total_frames, total_frames == 1 ? "" : "s");
  append_bad_lines(out, stream);
  out += "\n";

  for (const auto& [label, frames] : by_label) {
    std::vector<double> totals;
    totals.reserve(frames.size());
    for (const Frame& f : frames) totals.push_back(f.total_us);
    std::sort(totals.begin(), totals.end());
    const double p50 = percentile(totals, 0.50);
    const double p95 = percentile(totals, 0.95);
    const double p99 = percentile(totals, 0.99);
    appendf(out,
            "%-28s %6zu frames  p50 %9.1f us  p95 %9.1f us  "
            "p99 %9.1f us\n",
            label.c_str(), frames.size(), p50, p95, p99);

    // Attribute the slow tail: for every frame at or beyond p95, which
    // stage took the largest share of its wall time?
    struct Attribution {
      std::size_t frames = 0;
      double share_sum = 0.0;  ///< dominant stage's fraction of the frame
    };
    std::map<std::string, Attribution> dominant;
    std::size_t tail_frames = 0;
    for (const Frame& f : frames) {
      if (f.total_us < p95 || f.stages == nullptr || !f.stages->is_object())
        continue;
      ++tail_frames;
      std::string worst;
      double worst_us = -1.0;
      for (const auto& [name, st] : f.stages->as_object()) {
        const double us = st.number_or("us", 0.0);
        if (us > worst_us) {
          worst_us = us;
          worst = name;
        }
      }
      if (worst.empty()) continue;
      Attribution& a = dominant[worst];
      ++a.frames;
      a.share_sum += f.total_us > 0.0 ? worst_us / f.total_us : 0.0;
    }
    // Most-frequent dominant stage first.
    std::vector<std::pair<std::string, Attribution>> ranked(
        dominant.begin(), dominant.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.second.frames != b.second.frames
                 ? a.second.frames > b.second.frames
                 : a.first < b.first;
    });
    for (const auto& [stage, a] : ranked)
      appendf(out,
              "  p95+ dominated by %-24s %4zu/%zu frames "
              "(avg %2.0f%% of frame)\n",
              stage.c_str(), a.frames, tail_frames,
              100.0 * a.share_sum / static_cast<double>(a.frames));
    out += "\n";
  }
  return out;
}

}  // namespace mmhand::top
