#include "lint/lint_core.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <sstream>

#include "mmhand/common/json.hpp"
#include "top/top_core.hpp"

namespace mmhand::lint {

namespace fs = std::filesystem;

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

int line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(),
                                         text.begin() +
                                             static_cast<std::ptrdiff_t>(pos),
                                         '\n'));
}

std::size_t find_ident(const std::string& text, const std::string& token,
                       std::size_t from) {
  std::size_t pos = from;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t after = pos + token.size();
    const bool right_ok = after >= text.size() || !is_ident_char(text[after]);
    if (left_ok && right_ok) return pos;
    pos = after;
  }
  return std::string::npos;
}

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool contains(const std::vector<std::string>& list, const std::string& s) {
  return std::find(list.begin(), list.end(), s) != list.end();
}

/// The rest of the line starting at `pos` (for "does this call mention
/// stdout/stderr" style context checks).
std::string line_tail(const std::string& text, std::size_t pos) {
  const std::size_t nl = text.find('\n', pos);
  return text.substr(pos, nl == std::string::npos ? std::string::npos
                                                  : nl - pos);
}

void add(std::vector<Finding>& out, const std::string& file, int line,
         const char* rule, std::string message) {
  out.push_back(Finding{file, line, rule, std::move(message)});
}

/// Flags every whole-identifier occurrence of `token`.
void flag_all(std::vector<Finding>& out, const std::string& file,
              const std::string& text, const std::string& token,
              const char* rule, const std::string& message) {
  for (std::size_t pos = 0;
       (pos = find_ident(text, token, pos)) != std::string::npos;
       pos += token.size())
    add(out, file, line_of(text, pos), rule, message);
}

void check_getenv(const std::string& path, const std::string& stripped,
                  const Config& cfg, std::vector<Finding>& out) {
  if (contains(cfg.getenv_allow, path)) return;
  flag_all(out, path, stripped, "getenv", "getenv-allowlist",
           "getenv outside the allowlist; read env knobs through"
           " obs/state (or extend scripts/lint_allowlist.json)");
  flag_all(out, path, stripped, "secure_getenv", "getenv-allowlist",
           "secure_getenv outside the allowlist; read env knobs through"
           " obs/state (or extend scripts/lint_allowlist.json)");
}

void check_direct_io(const std::string& path, const std::string& stripped,
                     const Config& cfg, std::vector<Finding>& out) {
  if (starts_with(path, "src/mmhand/obs/")) return;
  if (contains(cfg.io_allow, path)) return;
  const char* rule = "no-direct-io";
  const std::string route = "; route output through obs/log (MMHAND_WARN/"
                            "MMHAND_INFO/MMHAND_DEBUG)";
  // Unconditional console writers.  Identifier matching keeps
  // snprintf/vsnprintf (buffer formatting) out of scope.
  for (const char* token : {"printf", "vprintf", "puts", "putchar"})
    flag_all(out, path, stripped, token, rule,
             std::string(token) + " writes to stdout" + route);
  for (const char* token : {"cout", "cerr", "clog"})
    flag_all(out, path, stripped, token, rule,
             std::string("std::") + token + " in library code" + route);
  // FILE*-targeted writers are fine for data files; only console
  // streams are violations.
  for (const char* token : {"fprintf", "vfprintf", "fputs", "fputc",
                            "fwrite"}) {
    for (std::size_t pos = 0;
         (pos = find_ident(stripped, token, pos)) != std::string::npos;
         pos += std::char_traits<char>::length(token)) {
      const std::string tail = line_tail(stripped, pos);
      if (tail.find("stdout") != std::string::npos ||
          tail.find("stderr") != std::string::npos)
        add(out, path, line_of(stripped, pos), rule,
            std::string(token) + " to stdout/stderr" + route);
    }
  }
}

void check_rng(const std::string& path, const std::string& stripped,
               std::vector<Finding>& out) {
  const char* rule = "no-unseeded-rng";
  const std::string route =
      "; draw from an explicitly seeded mmhand::Rng (common/rng)";
  for (const char* token : {"rand", "srand", "rand_r", "drand48",
                            "random_device"})
    flag_all(out, path, stripped, token, rule,
             std::string(token) + " is not reproducible" + route);
  // Wall-clock seeding: time(nullptr) / time(NULL) feeding an engine.
  for (std::size_t pos = 0;
       (pos = find_ident(stripped, "time", pos)) != std::string::npos;
       pos += 4) {
    std::size_t after = pos + 4;
    while (after < stripped.size() &&
           std::isspace(static_cast<unsigned char>(stripped[after])))
      ++after;
    if (after >= stripped.size() || stripped[after] != '(') continue;
    const std::string tail = line_tail(stripped, after);
    if (tail.find("nullptr") != std::string::npos ||
        tail.find("NULL") != std::string::npos)
      add(out, path, line_of(stripped, pos), rule,
          "time-seeded randomness is not reproducible" + route);
  }
}

void check_header_hygiene(const std::string& path, const std::string& raw,
                          const std::string& stripped,
                          std::vector<Finding>& out) {
  if (raw.find("#pragma once") == std::string::npos)
    add(out, path, 1, "pragma-once", "header is missing #pragma once");
  for (std::size_t pos = 0;
       (pos = find_ident(stripped, "using", pos)) != std::string::npos;
       pos += 5) {
    std::size_t after = pos + 5;
    while (after < stripped.size() &&
           std::isspace(static_cast<unsigned char>(stripped[after])))
      ++after;
    if (find_ident(stripped, "namespace", after) == after)
      add(out, path, line_of(stripped, pos), "no-using-namespace",
          "using-directive in a header leaks into every includer");
  }
}

void check_raw_alloc(const std::string& path, const std::string& stripped,
                     const Config& cfg, std::vector<Finding>& out) {
  const char* rule = "no-raw-alloc";
  if (contains(cfg.raw_alloc_allow, path)) return;
  for (const char* token : {"malloc", "calloc", "realloc"})
    flag_all(out, path, stripped, token, rule,
             std::string(token) + " in library code; use std::vector or"
                                  " std::unique_ptr");
  // `new <type...>[` — a naked array allocation.
  for (std::size_t pos = 0;
       (pos = find_ident(stripped, "new", pos)) != std::string::npos;
       pos += 3) {
    std::size_t i = pos + 3;
    bool saw_type = false;
    while (i < stripped.size()) {
      const char c = stripped[i];
      if (std::isspace(static_cast<unsigned char>(c)) || is_ident_char(c) ||
          c == ':' || c == '<' || c == '>') {
        saw_type = saw_type || is_ident_char(c);
        ++i;
        continue;
      }
      break;
    }
    if (saw_type && i < stripped.size() && stripped[i] == '[')
      add(out, path, line_of(stripped, pos), rule,
          "naked new[] in library code; use std::vector or"
          " std::make_unique");
  }
}

void check_simd_confinement(const std::string& path,
                            const std::string& stripped,
                            std::vector<Finding>& out) {
  if (starts_with(path, "src/mmhand/simd/")) return;
  const char* rule = "simd-confinement";
  const std::string route =
      "; raw SIMD lives under src/mmhand/simd/ — call through the"
      " simd::Kernels dispatch table instead";
  // Intrinsics headers.  Angle-bracket includes survive string stripping.
  for (const char* hdr : {"immintrin.h", "arm_neon.h", "emmintrin.h",
                          "xmmintrin.h"}) {
    const std::size_t len = std::char_traits<char>::length(hdr);
    for (std::size_t pos = 0;
         (pos = stripped.find(hdr, pos)) != std::string::npos; pos += len)
      add(out, path, line_of(stripped, pos), rule,
          std::string("#include of ") + hdr + " outside the simd layer" +
              route);
  }
  // Intrinsic identifiers, matched by prefix (the suffix encodes the
  // element type: _mm256_add_pd, vld1q_f64, ...).
  for (const char* prefix : {"_mm_", "_mm256_", "_mm512_", "vld1q_",
                             "vst1q_"}) {
    const std::size_t len = std::char_traits<char>::length(prefix);
    for (std::size_t pos = 0;
         (pos = stripped.find(prefix, pos)) != std::string::npos;
         pos += len) {
      if (pos > 0 && is_ident_char(stripped[pos - 1])) continue;
      add(out, path, line_of(stripped, pos), rule,
          std::string(prefix) + "* intrinsic outside the simd layer" + route);
    }
  }
}

void check_pmu_confinement(const std::string& path,
                           const std::string& stripped,
                           std::vector<Finding>& out) {
  // pmu.cpp (and its header) are the one sanctioned perf_event TU; a
  // second caller would duplicate the availability/fallback state and
  // could race the sticky "unavailable" latch.
  if (starts_with(path, "src/mmhand/obs/pmu")) return;
  const char* rule = "pmu-confinement";
  const std::string route =
      "; perf_event access lives in src/mmhand/obs/pmu.cpp — attach"
      " hardware counters to spans via MMHAND_PMU instead";
  for (const char* hdr : {"linux/perf_event.h", "sys/syscall.h"}) {
    const std::size_t len = std::char_traits<char>::length(hdr);
    for (std::size_t pos = 0;
         (pos = stripped.find(hdr, pos)) != std::string::npos; pos += len)
      add(out, path, line_of(stripped, pos), rule,
          std::string("#include of ") + hdr + " outside the pmu layer" +
              route);
  }
  for (const char* ident :
       {"perf_event_open", "perf_event_attr", "syscall"}) {
    const std::size_t len = std::char_traits<char>::length(ident);
    for (std::size_t pos = 0;
         (pos = find_ident(stripped, ident, pos)) != std::string::npos;
         pos += len)
      add(out, path, line_of(stripped, pos), rule,
          std::string(ident) + " outside the pmu layer" + route);
  }
}

void check_durable_write(const std::string& path, const std::string& raw,
                         const std::string& stripped, const Config& cfg,
                         std::vector<Finding>& out) {
  if (contains(cfg.durable_write_allow, path)) return;
  const char* rule = "durable-write";
  const std::string route =
      "; write binary artifacts through common/serialize (BinaryWriter)"
      " or common/io_safe so they land atomically with a validated"
      " envelope";
  // A binary ofstream bypasses the envelope and the atomic rename.
  for (std::size_t pos = 0;
       (pos = find_ident(stripped, "ofstream", pos)) != std::string::npos;
       pos += 8) {
    if (line_tail(stripped, pos).find("binary") != std::string::npos)
      add(out, path, line_of(stripped, pos), rule,
          "binary std::ofstream in library code" + route);
  }
  // fopen with a binary *write* mode; the mode literal lives in the RAW
  // text (stripping blanks string contents).  Read modes stay legal.
  for (std::size_t pos = 0;
       (pos = find_ident(stripped, "fopen", pos)) != std::string::npos;
       pos += 5) {
    const std::string tail = line_tail(raw, pos);
    for (const char* mode : {"\"wb\"", "\"w+b\"", "\"wb+\"", "\"ab\"",
                             "\"a+b\"", "\"ab+\""}) {
      if (tail.find(mode) != std::string::npos) {
        add(out, path, line_of(stripped, pos), rule,
            std::string("fopen(..., ") + mode +
                ") writes a binary file directly" + route);
        break;
      }
    }
  }
}

void check_env_docs(const std::string& path, const std::string& raw,
                    const Config& cfg, std::vector<Finding>& out) {
  // Scans the RAW text: the literals of interest live inside quotes.
  const std::string needle = "\"MMHAND_";
  for (std::size_t pos = 0; (pos = raw.find(needle, pos)) != std::string::npos;
       ++pos) {
    std::size_t start = pos + 1;  // past the opening quote
    std::size_t end = start;
    while (end < raw.size() &&
           (std::isupper(static_cast<unsigned char>(raw[end])) != 0 ||
            std::isdigit(static_cast<unsigned char>(raw[end])) != 0 ||
            raw[end] == '_'))
      ++end;
    // Require a closing quote right after the name and at least one
    // character beyond the MMHAND_ prefix, so partial prefixes (string
    // concatenation, this very scanner) don't count as env-var uses.
    if (end >= raw.size() || raw[end] != '"') continue;
    const std::string name = raw.substr(start, end - start);
    if (name.size() <= needle.size() - 1) continue;
    if (!contains(cfg.documented_env, name))
      add(out, path, line_of(raw, pos), "env-var-docs",
          name + " is not documented in the README environment-variable"
                 " table");
  }
}

}  // namespace

bool parse_allowlist_json(const std::string& text, Config* cfg,
                          std::string* error) {
  std::string parse_error;
  const json::Value root = json::Value::parse(text, &parse_error);
  if (!parse_error.empty()) {
    if (error != nullptr) *error = "allowlist: " + parse_error;
    return false;
  }
  if (!root.is_object()) {
    if (error != nullptr) *error = "allowlist: top level must be an object";
    return false;
  }
  const auto load = [&](const char* key, std::vector<std::string>* dst,
                        std::string* err) {
    dst->clear();
    const json::Value* v = root.find(key);
    if (v == nullptr) return true;  // absent key: empty list
    if (!v->is_array()) {
      *err = std::string("allowlist: \"") + key + "\" must be an array";
      return false;
    }
    for (const json::Value& item : v->as_array()) {
      if (!item.is_string()) {
        *err = std::string("allowlist: \"") + key +
               "\" entries must be strings";
        return false;
      }
      dst->push_back(item.as_string());
    }
    return true;
  };
  std::string err;
  if (!load("getenv", &cfg->getenv_allow, &err) ||
      !load("direct_io", &cfg->io_allow, &err) ||
      !load("durable_write", &cfg->durable_write_allow, &err) ||
      !load("raw_alloc", &cfg->raw_alloc_allow, &err)) {
    if (error != nullptr) *error = err;
    return false;
  }
  return true;
}

bool load_lint_config(const std::string& root, Config* cfg,
                      std::string* error) {
  const std::string allowlist =
      (fs::path(root) / "scripts" / "lint_allowlist.json").string();
  const std::string readme = (fs::path(root) / "README.md").string();
  std::string text, err;
  if (!top::load_text(allowlist, &text, error)) return false;
  if (!parse_allowlist_json(text, cfg, &err)) {
    if (error != nullptr) *error = allowlist + ": " + err;
    return false;
  }
  if (!top::load_text(readme, &text, error)) return false;
  cfg->documented_env = extract_documented_env(text);
  return true;
}

bool read_sources(const std::string& root, Gate gate,
                  const std::vector<std::string>& targets, Sources* out,
                  std::string* error) {
  const bool purity = gate == Gate::kPurity;
  std::vector<std::string> walk = targets;
  if (walk.empty())
    walk = purity ? std::vector<std::string>{"src/mmhand"}
                  : std::vector<std::string>{"src", "tests", "bench",
                                             "tools"};
  const auto wanted = [&](const fs::path& path) {
    const std::string ext = path.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".h" ||
           (purity && ext == ".inl");
  };
  // (root-relative path, file).  Overlapping targets (`src/mmhand/x src`,
  // `./src src`) reach a file more than once; it is read, and reported,
  // once.
  std::vector<std::pair<fs::path, fs::path>> files;
  const auto add = [&](const fs::path& file) {
    files.emplace_back(fs::relative(file, root).lexically_normal(), file);
  };
  for (const std::string& target : walk) {
    const fs::path base = fs::path(target).is_absolute()
                              ? fs::path(target)
                              : fs::path(root) / target;
    if (fs::is_regular_file(base)) {
      add(base);
    } else if (fs::is_directory(base)) {
      for (const auto& entry : fs::recursive_directory_iterator(base))
        if (entry.is_regular_file() && wanted(entry.path()))
          add(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              files.end());
  out->clear();
  for (const auto& [relative, file] : files) {
    std::string content;
    if (!top::load_text(file.string(), &content, error)) return false;
    out->emplace_back(relative.generic_string(), std::move(content));
  }
  return true;
}

namespace {

/// True when the `"` at `i` opens a raw string literal: immediately
/// preceded by `R` with an optional `u8`/`u`/`U`/`L` encoding prefix,
/// and that prefix is not the tail of a longer identifier
/// (`FooR"..."` is not a raw string).
bool is_raw_string_quote(const std::string& src, std::size_t i) {
  if (i == 0 || src[i - 1] != 'R') return false;
  std::size_t p = i - 1;  // index of 'R'
  if (p >= 2 && src[p - 2] == 'u' && src[p - 1] == '8') {
    p -= 2;
  } else if (p >= 1 &&
             (src[p - 1] == 'u' || src[p - 1] == 'U' || src[p - 1] == 'L')) {
    p -= 1;
  }
  return p == 0 || !is_ident_char(src[p - 1]);
}

}  // namespace

std::string strip_comments_and_strings(const std::string& src) {
  std::string out = src;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_close;  // ")delim\"" of the open raw string
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"' && is_raw_string_quote(src, i)) {
          // R"delim( ... )delim": no escapes inside; the literal ends
          // only at the matching close sequence.
          std::size_t open = src.find('(', i + 1);
          if (open == std::string::npos) break;  // ill-formed; give up
          raw_close = ")" + src.substr(i + 1, open - i - 1) + "\"";
          for (std::size_t j = i + 1; j <= open; ++j)
            if (src[j] != '\n') out[j] = ' ';
          i = open;
          state = State::kRawString;
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kRawString:
        if (c == ')' && src.compare(i, raw_close.size(), raw_close) == 0) {
          // Blank the close delimiter too, leaving only the final quote
          // so downstream scans still see a string ended here.
          for (std::size_t j = i; j + 1 < i + raw_close.size(); ++j)
            if (src[j] != '\n') out[j] = ' ';
          i += raw_close.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\\' && next == '\n') {
          // Backslash-newline splices the next line into this comment
          // ([lex.phases]); the comment does not end at this newline.
          out[i] = ' ';
          ++i;  // keep the newline char, stay in the comment
        } else if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char close = state == State::kString ? '"' : '\'';
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == close) {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::vector<Finding> check_file(const std::string& path,
                                const std::string& content,
                                const Config& cfg) {
  std::vector<Finding> out;
  const bool is_header = ends_with(path, ".hpp") || ends_with(path, ".h");
  const bool in_library = starts_with(path, "src/mmhand/");
  const bool in_tools = starts_with(path, "tools/");
  const std::string stripped = strip_comments_and_strings(content);

  if (in_library) {
    check_getenv(path, stripped, cfg, out);
    check_direct_io(path, stripped, cfg, out);
    check_rng(path, stripped, out);
    check_raw_alloc(path, stripped, cfg, out);
    check_simd_confinement(path, stripped, out);
    check_pmu_confinement(path, stripped, out);
    check_durable_write(path, content, stripped, cfg, out);
  }
  if (is_header) check_header_hygiene(path, content, stripped, out);
  // Env-literal documentation applies to library and tool code; tests
  // and benches may mention made-up names in fixtures.
  if (in_library || in_tools) check_env_docs(path, content, cfg, out);

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return out;
}

std::vector<Finding> check_sources(const Sources& sources,
                                   const Config& cfg) {
  std::vector<Finding> out;
  for (const auto& [path, content] : sources) {
    const std::vector<Finding> found = check_file(path, content, cfg);
    out.insert(out.end(), found.begin(), found.end());
  }
  return out;
}

std::vector<std::string> extract_documented_env(const std::string& readme) {
  std::vector<std::string> names;
  const std::string prefix = "MMHAND_";
  for (std::size_t pos = 0;
       (pos = readme.find(prefix, pos)) != std::string::npos;) {
    std::size_t end = pos + prefix.size();
    while (end < readme.size() &&
           (std::isupper(static_cast<unsigned char>(readme[end])) != 0 ||
            std::isdigit(static_cast<unsigned char>(readme[end])) != 0 ||
            readme[end] == '_'))
      ++end;
    if (end > pos + prefix.size()) {
      const std::string name = readme.substr(pos, end - pos);
      if (!contains(names, name)) names.push_back(name);
    }
    pos = end;
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string findings_to_json(const std::vector<Finding>& findings,
                             std::size_t files_scanned) {
  const auto escape = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out.push_back(c);
      }
    }
    return out;
  };
  std::map<std::string, int> counts;
  for (const Finding& f : findings) ++counts[f.rule];
  std::ostringstream os;
  os << "{\n  \"tool\": \"mmhand_lint\",\n  \"files_scanned\": "
     << files_scanned << ",\n  \"counts\": {";
  bool first = true;
  for (const auto& [rule, n] : counts) {
    os << (first ? "" : ", ") << "\"" << escape(rule) << "\": " << n;
    first = false;
  }
  os << "},\n  \"findings\": [";
  first = true;
  for (const Finding& f : findings) {
    os << (first ? "\n" : ",\n")
       << "    {\"file\": \"" << escape(f.file) << "\", \"line\": " << f.line
       << ", \"rule\": \"" << escape(f.rule) << "\", \"message\": \""
       << escape(f.message) << "\"}";
    first = false;
  }
  os << (findings.empty() ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

}  // namespace mmhand::lint
