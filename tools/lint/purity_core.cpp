#include "lint/purity_core.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>

#include "lint/lint_core.hpp"
#include "mmhand/common/json.hpp"
#include "top/top_core.hpp"

namespace mmhand::lint {

namespace {

bool space_char(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

bool has_whole(const std::string& text, const std::string& token) {
  return find_ident(text, token, 0) != std::string::npos;
}

// ---- deny classes ---------------------------------------------------

struct DenyClass {
  const char* category;
  std::vector<const char*> tokens;
};

const std::vector<DenyClass>& deny_classes() {
  // Whole-identifier tokens; snprintf/vsnprintf (buffer formatting, no
  // I/O) are deliberately absent from the io class.
  static const std::vector<DenyClass> classes = {
      {"heap-alloc",
       {"new", "delete", "malloc", "calloc", "realloc", "free", "push_back",
        "emplace_back", "emplace", "resize", "reserve", "insert", "append",
        "make_unique", "make_shared", "to_string", "stringstream",
        "ostringstream"}},
      {"lock",
       {"mutex", "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
        "shared_mutex", "condition_variable", "condition_variable_any",
        "once_flag", "call_once", "timed_mutex", "recursive_mutex"}},
      {"throw", {"throw"}},
      {"io",
       {"printf", "vprintf", "fprintf", "vfprintf", "puts", "fputs",
        "putchar", "fputc", "fwrite", "fread", "fopen", "fclose", "fflush",
        "cout", "cerr", "clog", "ofstream", "ifstream", "fstream",
        "getline", "system"}},
      {"syscall",
       {"getenv", "setenv", "mmap", "munmap", "msync", "fsync", "fdatasync",
        "usleep", "nanosleep", "sleep_for", "sleep_until", "sleep", "poll",
        "select", "epoll_wait", "ioctl", "sched_yield", "open", "read",
        "write"}},
  };
  return classes;
}

// ---- preprocessor pass ----------------------------------------------

struct MacroDef {
  std::string name;
  std::string body;  ///< replacement text (continuations preserved)
  int line = 0;
};

/// Extracts function-like `#define NAME(...)` replacements as
/// pseudo-functions and blanks every preprocessor logical line (so
/// `#if`-unbalanced braces cannot derail the scope walk).  Newlines are
/// preserved throughout.
void blank_directives(std::string* text, std::vector<MacroDef>* macros) {
  std::string& s = *text;
  std::size_t i = 0;
  while (i < s.size()) {
    // Find start of line; check first non-space char.
    std::size_t line_start = i;
    std::size_t j = i;
    while (j < s.size() && (s[j] == ' ' || s[j] == '\t')) ++j;
    std::size_t line_end = s.find('\n', i);
    if (line_end == std::string::npos) line_end = s.size();
    if (j >= s.size() || s[j] != '#') {
      i = line_end + 1;
      continue;
    }
    // Extend over backslash continuations.
    std::size_t end = line_end;
    while (end < s.size()) {
      std::size_t k = end;
      while (k > line_start && space_char(s[k - 1]) && s[k - 1] != '\n') --k;
      if (k == line_start || s[k - 1] != '\\') break;
      end = s.find('\n', end + 1);
      if (end == std::string::npos) end = s.size();
    }
    const std::string directive = s.substr(line_start, end - line_start);
    // Function-like macro: "# define NAME(" with no space before '('.
    std::size_t d = directive.find('#');
    std::size_t p = d + 1;
    while (p < directive.size() && space_char(directive[p])) ++p;
    if (directive.compare(p, 6, "define") == 0) {
      p += 6;
      while (p < directive.size() && space_char(directive[p])) ++p;
      std::size_t name_end = p;
      while (name_end < directive.size() && is_ident_char(directive[name_end]))
        ++name_end;
      if (name_end > p && name_end < directive.size() &&
          directive[name_end] == '(') {
        std::size_t close = directive.find(')', name_end);
        if (close != std::string::npos) {
          MacroDef m;
          m.name = directive.substr(p, name_end - p);
          m.body = directive.substr(close + 1);
          m.line = line_of(s, line_start + p);
          macros->push_back(std::move(m));
        }
      }
    }
    for (std::size_t k = line_start; k < end && k < s.size(); ++k)
      if (s[k] != '\n') s[k] = ' ';
    i = end + 1;
  }
}

// ---- declaration-context classification -----------------------------

struct CtxInfo {
  enum Kind { kOther, kNamespace, kType, kFunction } kind = kOther;
  std::string name;      ///< scope or function name (may contain ::)
  bool realtime = false;  ///< MMHAND_REALTIME present in the context
};

/// Strips leading `template <...>` groups (balancing nested <>), so the
/// `class`/`typename` keywords inside them don't read as type scopes.
std::string strip_template_preamble(std::string ctx) {
  for (;;) {
    std::size_t t = 0;
    while (t < ctx.size() && space_char(ctx[t])) ++t;
    if (ctx.compare(t, 8, "template") != 0 ||
        (t + 8 < ctx.size() && is_ident_char(ctx[t + 8])))
      return ctx;
    std::size_t lt = ctx.find('<', t);
    if (lt == std::string::npos) return ctx;
    int depth = 0;
    std::size_t k = lt;
    for (; k < ctx.size(); ++k) {
      if (ctx[k] == '<') ++depth;
      if (ctx[k] == '>' && --depth == 0) break;
    }
    if (k >= ctx.size()) return ctx;
    ctx = ctx.substr(k + 1);
  }
}

const std::set<std::string>& non_call_keywords() {
  static const std::set<std::string> kw = {
      "if",       "for",        "while",      "switch",
      "catch",    "return",     "sizeof",     "alignof",
      "alignas",  "decltype",   "noexcept",   "static_assert",
      "defined",  "new",        "delete",     "static_cast",
      "dynamic_cast", "reinterpret_cast",     "const_cast",
      "co_await", "co_return",  "co_yield",   "throw",
      "int",      "char",       "bool",       "float",
      "double",   "long",       "short",      "unsigned",
      "signed",   "void",       "auto",       "typename",
      "typedef",  "using",      "operator",   "assert",
      "__builtin_expect",
  };
  return kw;
}

/// Atomic/metric vocabulary too generic to resolve by terminal name
/// alone: `g_active.load(...)`, `V::load(p)`, `frames.add(1)`, and
/// chrono's `.count()` would otherwise edge into every unrelated
/// `load`/`add`/`count` definition in the tree (Adam::load,
/// EvalAccumulator::add, ...).  Calls with these terminals stay
/// unresolved unless spelled with enough qualification to match a
/// definition exactly — the one place the
/// analyzer under-approximates instead of over; the runtime interposer
/// in scripts/check_purity.sh covers what this drops.
const std::set<std::string>& ambiguous_terminals() {
  static const std::set<std::string> names = {
      "load",      "store",      "exchange",
      "compare_exchange_weak",   "compare_exchange_strong",
      "test_and_set",            "fetch_add",
      "fetch_sub", "fetch_or",   "fetch_and",
      "fetch_xor", "wait",       "notify_one",
      "notify_all", "count",     "add",
  };
  return names;
}

CtxInfo classify_context(const std::string& raw_ctx) {
  CtxInfo info;
  info.realtime = has_whole(raw_ctx, "MMHAND_REALTIME");
  const std::string ctx = strip_template_preamble(raw_ctx);

  // Scan at paren depth 0 for structure: keywords, the first paren
  // group, and any top-level '='.
  int depth = 0;
  std::size_t first_open = std::string::npos, first_close = std::string::npos;
  bool top_level_eq = false;
  std::string first_kw;
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const char c = ctx[i];
    if (c == '(') {
      if (depth == 0 && first_open == std::string::npos) first_open = i;
      ++depth;
    } else if (c == ')') {
      --depth;
      if (depth == 0 && first_close == std::string::npos &&
          first_open != std::string::npos)
        first_close = i;
    } else if (depth == 0 && c == '=' &&
               first_close == std::string::npos) {
      // '=' before any parameter list: an initializer, not a function
      // ('=' after the list is caught by the qualifier check below).
      // Skip ==, !=, <=, >= comparisons.
      const char prev = i > 0 ? ctx[i - 1] : '\0';
      const char next = i + 1 < ctx.size() ? ctx[i + 1] : '\0';
      if (prev != '=' && prev != '!' && prev != '<' && prev != '>' &&
          next != '=')
        top_level_eq = true;
    } else if (depth == 0 && is_ident_char(c) && first_kw.empty() &&
               (i == 0 || !is_ident_char(ctx[i - 1]))) {
      std::size_t e = i;
      while (e < ctx.size() && is_ident_char(ctx[e])) ++e;
      const std::string word = ctx.substr(i, e - i);
      if (word == "namespace" || word == "class" || word == "struct" ||
          word == "union" || word == "enum")
        first_kw = word;
    }
  }

  if (has_whole(ctx, "namespace") && first_open == std::string::npos) {
    info.kind = CtxInfo::kNamespace;
    // Name = trailing ident path (empty for anonymous namespaces).
    std::size_t e = ctx.size();
    while (e > 0 && space_char(ctx[e - 1])) --e;
    std::size_t b = e;
    while (b > 0 && (is_ident_char(ctx[b - 1]) || ctx[b - 1] == ':')) --b;
    std::string name = ctx.substr(b, e - b);
    if (name == "namespace" || name == "inline") name.clear();
    info.name = name;
    return info;
  }

  if (!first_kw.empty() && first_kw != "namespace" &&
      first_open == std::string::npos) {
    info.kind = CtxInfo::kType;
    // Name = first ident after the keyword (skipping "class" of
    // `enum class` and attributes).
    std::size_t pos = find_ident(ctx, first_kw, 0) + first_kw.size();
    while (pos < ctx.size()) {
      while (pos < ctx.size() && !is_ident_char(ctx[pos])) ++pos;
      std::size_t e = pos;
      while (e < ctx.size() && is_ident_char(ctx[e])) ++e;
      const std::string word = ctx.substr(pos, e - pos);
      if (word.empty()) break;
      if (word != "class" && word != "struct" && word != "final" &&
          word != "alignas") {
        info.name = word;
        break;
      }
      pos = e;
    }
    return info;
  }

  if (first_open == std::string::npos || first_close == std::string::npos ||
      top_level_eq)
    return info;  // kOther

  // Candidate function: ident path immediately before the first group.
  std::size_t e = first_open;
  while (e > 0 && space_char(ctx[e - 1])) --e;
  std::size_t b = e;
  while (b > 0 && (is_ident_char(ctx[b - 1]) || ctx[b - 1] == ':')) --b;
  std::string name = ctx.substr(b, e - b);
  while (!name.empty() && name.front() == ':') name.erase(name.begin());
  if (name.empty()) return info;
  const std::size_t last_sep = name.rfind("::");
  const std::string terminal =
      last_sep == std::string::npos ? name : name.substr(last_sep + 2);
  if (non_call_keywords().count(terminal) != 0) return info;
  if (raw_ctx.find("operator") != std::string::npos) return info;

  // The remainder after the parameter list must look like function
  // qualifiers; a ':' (ctor initializer) or "->" (trailing return)
  // accepts the rest.
  static const std::set<std::string> quals = {
      "const", "noexcept", "override", "final", "try", "mutable",
      "volatile", "&&"};
  std::size_t i = first_close + 1;
  while (i < ctx.size()) {
    const char c = ctx[i];
    if (space_char(c) || c == '&') {
      ++i;
      continue;
    }
    if (c == ':') break;  // ctor initializer list
    if (c == '-' && i + 1 < ctx.size() && ctx[i + 1] == '>') break;
    if (c == '(') {  // noexcept(...) argument
      int d = 0;
      for (; i < ctx.size(); ++i) {
        if (ctx[i] == '(') ++d;
        if (ctx[i] == ')' && --d == 0) break;
      }
      ++i;
      continue;
    }
    if (!is_ident_char(c)) return info;
    std::size_t we = i;
    while (we < ctx.size() && is_ident_char(ctx[we])) ++we;
    if (quals.count(ctx.substr(i, we - i)) == 0) return info;
    i = we;
  }

  info.kind = CtxInfo::kFunction;
  info.name = name;
  return info;
}

// ---- function index -------------------------------------------------

struct FnDef {
  std::string qual;      ///< qualified name, :: separated
  std::string terminal;  ///< last path component
  int file = -1;         ///< index into the input file list
  std::size_t body_begin = 0, body_end = 0;  ///< into the stripped text
  int line = 0;
  bool realtime = false;
  bool is_macro = false;
};

/// Walks one stripped, directive-blanked file and appends its function
/// definitions.
void index_file(int file_idx, const std::string& text,
                std::vector<FnDef>* defs) {
  struct Open {
    CtxInfo::Kind kind;
    std::string name;
  };
  std::vector<Open> stack;
  std::string ctx;
  std::size_t ctx_start = 0;
  bool in_fn = false;
  int fn_depth = 0;
  FnDef cur;

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_fn) {
      if (c == '{') {
        ++fn_depth;
      } else if (c == '}') {
        if (--fn_depth == 0) {
          cur.body_end = i;
          defs->push_back(cur);
          in_fn = false;
          ctx.clear();
        }
      }
      continue;
    }
    if (c == '{') {
      const CtxInfo info = classify_context(ctx);
      if (info.kind == CtxInfo::kFunction) {
        cur = FnDef{};
        cur.file = file_idx;
        cur.line = line_of(text, ctx_start);
        cur.realtime = info.realtime;
        cur.body_begin = i + 1;
        std::string qual;
        for (const Open& o : stack)
          if (!o.name.empty()) qual += o.name + "::";
        qual += info.name;
        cur.qual = qual;
        const std::size_t sep = qual.rfind("::");
        cur.terminal = sep == std::string::npos ? qual : qual.substr(sep + 2);
        in_fn = true;
        fn_depth = 1;
      } else {
        stack.push_back(
            {info.kind, info.kind == CtxInfo::kOther ? "" : info.name});
      }
      ctx.clear();
    } else if (c == '}') {
      if (!stack.empty()) stack.pop_back();
      ctx.clear();
    } else if (c == ';') {
      ctx.clear();
    } else {
      if (ctx.empty()) {
        if (space_char(c)) continue;
        ctx_start = i;
      }
      ctx += c;
    }
  }
}

// ---- call extraction ------------------------------------------------

/// Identifier paths immediately followed by '(' — potential call
/// sites.  Returns full paths ("dsp::fft", "run"); member access is
/// reduced to the trailing path by construction.
std::vector<std::string> extract_calls(const std::string& body) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < body.size()) {
    if (!is_ident_char(body[i]) || (i > 0 && is_ident_char(body[i - 1]))) {
      ++i;
      continue;
    }
    // Read an ident path: ident (:: ident)*
    std::size_t start = i;
    for (;;) {
      while (i < body.size() && is_ident_char(body[i])) ++i;
      if (i + 1 < body.size() && body[i] == ':' && body[i + 1] == ':' &&
          i + 2 < body.size() && is_ident_char(body[i + 2]))
        i += 2;
      else
        break;
    }
    const std::string path = body.substr(start, i - start);
    std::size_t j = i;
    while (j < body.size() && space_char(body[j])) ++j;
    if (j < body.size() && body[j] == '(') {
      const std::size_t sep = path.rfind("::");
      const std::string terminal =
          sep == std::string::npos ? path : path.substr(sep + 2);
      if (non_call_keywords().count(terminal) == 0) out.push_back(path);
    }
  }
  return out;
}

/// True when `qual` ends with `suffix` at a :: boundary.
bool qual_suffix_match(const std::string& qual, const std::string& suffix) {
  if (suffix.size() > qual.size()) return false;
  if (qual.compare(qual.size() - suffix.size(), suffix.size(), suffix) != 0)
    return false;
  if (suffix.size() == qual.size()) return true;
  const std::size_t b = qual.size() - suffix.size();
  return b >= 2 && qual[b - 1] == ':' && qual[b - 2] == ':';
}

bool is_audited(const FnDef& def, const PurityConfig& cfg,
                std::string* reason) {
  for (const auto& a : cfg.audited) {
    if (qual_suffix_match(def.qual, a.function)) {
      if (reason != nullptr) *reason = a.reason;
      return true;
    }
  }
  return false;
}

}  // namespace

bool parse_purity_allowlist_json(const std::string& text, PurityConfig* cfg,
                                 std::string* error) {
  std::string parse_error;
  const json::Value root = json::Value::parse(text, &parse_error);
  if (!parse_error.empty()) {
    if (error != nullptr) *error = "purity allowlist: " + parse_error;
    return false;
  }
  if (!root.is_object()) {
    if (error != nullptr)
      *error = "purity allowlist: top level must be an object";
    return false;
  }
  const json::Value* v = root.find("audited");
  if (v == nullptr) {  // absent key: empty list
    cfg->audited.clear();
    return true;
  }
  if (!v->is_array()) {
    if (error != nullptr)
      *error = "purity allowlist: \"audited\" must be an array";
    return false;
  }
  std::vector<PurityConfig::Audited> audited;
  for (const json::Value& item : v->as_array()) {
    const json::Value* fn = item.is_object() ? item.find("function") : nullptr;
    const json::Value* why = item.is_object() ? item.find("reason") : nullptr;
    if (fn == nullptr || !fn->is_string() || why == nullptr ||
        !why->is_string()) {
      if (error != nullptr)
        *error = "purity allowlist: audited entries need string "
                 "\"function\" and \"reason\"";
      return false;
    }
    audited.push_back({fn->as_string(), why->as_string()});
  }
  cfg->audited = std::move(audited);
  return true;
}

bool load_purity_config(const std::string& root, PurityConfig* cfg,
                        std::string* error) {
  const std::string path =
      (std::filesystem::path(root) / "scripts" / "purity_allowlist.json")
          .string();
  std::string text, err;
  if (!top::load_text(path, &text, error)) return false;
  if (parse_purity_allowlist_json(text, cfg, &err)) return true;
  if (error != nullptr) *error = path + ": " + err;
  return false;
}

PurityReport analyze_purity(
    const std::vector<std::pair<std::string, std::string>>& files,
    const PurityConfig& cfg) {
  PurityReport report;
  report.files_scanned = files.size();

  // Pass 1: strip + de-preprocess every file, index definitions.
  std::vector<std::string> stripped(files.size());
  std::vector<FnDef> defs;
  for (std::size_t f = 0; f < files.size(); ++f) {
    stripped[f] = strip_comments_and_strings(files[f].second);
    std::vector<MacroDef> macros;
    blank_directives(&stripped[f], &macros);
    index_file(static_cast<int>(f), stripped[f], &defs);
    for (MacroDef& m : macros) {
      FnDef def;
      def.qual = m.name;
      def.terminal = m.name;
      def.file = static_cast<int>(f);
      def.line = m.line;
      def.is_macro = true;
      // Macro bodies live outside the stripped text; stash the body in
      // a side table keyed by def index (body_begin/end unused).
      defs.push_back(def);
      // Reuse the stripped storage: append the body so offsets stay
      // valid (newlines inside keep line_of usable for the macro file).
      defs.back().body_begin = stripped[f].size();
      stripped[f] += m.body;
      defs.back().body_end = stripped[f].size();
      defs.back().line = m.line;
    }
  }
  report.functions_indexed = defs.size();

  // Terminal-name resolution index.
  std::map<std::string, std::vector<std::size_t>> by_terminal;
  for (std::size_t d = 0; d < defs.size(); ++d)
    by_terminal[defs[d].terminal].push_back(d);

  const auto resolve = [&](const std::string& path,
                           std::vector<std::size_t>* out) {
    if (path.compare(0, 5, "std::") == 0) return false;
    const std::size_t sep = path.rfind("::");
    const std::string terminal =
        sep == std::string::npos ? path : path.substr(sep + 2);
    const auto it = by_terminal.find(terminal);
    if (it == by_terminal.end()) return false;
    if (sep != std::string::npos) {
      // Qualified call: prefer definitions matching the full path.
      std::vector<std::size_t> exact;
      for (std::size_t d : it->second)
        if (qual_suffix_match(defs[d].qual, path)) exact.push_back(d);
      if (!exact.empty()) {
        *out = std::move(exact);
        return true;
      }
    }
    if (ambiguous_terminals().count(terminal) != 0) return false;
    *out = it->second;
    return true;
  };

  // Body deny-token scan, with line numbers from the stripped text.
  const auto scan_body = [&](const FnDef& def, const std::string& root,
                             const std::vector<std::string>& chain,
                             std::vector<PurityHit>* hits) {
    const std::string body = stripped[static_cast<std::size_t>(def.file)]
                                 .substr(def.body_begin,
                                         def.body_end - def.body_begin);
    for (const DenyClass& cls : deny_classes()) {
      for (const char* token : cls.tokens) {
        for (std::size_t pos = 0;
             (pos = find_ident(body, token, pos)) != std::string::npos;
             pos += std::char_traits<char>::length(token)) {
          PurityHit hit;
          hit.root = root;
          hit.chain = chain;
          hit.function = def.qual;
          hit.file = files[static_cast<std::size_t>(def.file)].first;
          hit.line = def.is_macro
                         ? def.line
                         : line_of(stripped[static_cast<std::size_t>(
                                       def.file)],
                                   def.body_begin + pos);
          hit.category = cls.category;
          hit.token = token;
          hits->push_back(std::move(hit));
        }
      }
    }
  };

  // Pass 2: BFS from each MMHAND_REALTIME root.
  for (std::size_t r = 0; r < defs.size(); ++r) {
    if (!defs[r].realtime) continue;
    PurityRoot root;
    root.name = defs[r].qual;
    root.file = files[static_cast<std::size_t>(defs[r].file)].first;
    root.line = defs[r].line;

    std::map<std::size_t, std::size_t> parent;  // def -> predecessor
    std::set<std::size_t> visited;
    std::deque<std::size_t> queue;
    visited.insert(r);
    queue.push_back(r);
    std::set<std::string> hit_keys;

    while (!queue.empty()) {
      const std::size_t d = queue.front();
      queue.pop_front();
      std::string why;
      if (d != r && is_audited(defs[d], cfg, &why)) {
        ++root.audited;
        continue;  // opaque: neither scanned nor traversed
      }
      ++root.reachable;

      // Reconstruct root -> ... -> d.
      std::vector<std::string> chain;
      for (std::size_t cur = d;;) {
        chain.push_back(defs[cur].qual);
        const auto it = parent.find(cur);
        if (it == parent.end()) break;
        cur = it->second;
      }
      std::reverse(chain.begin(), chain.end());

      std::vector<PurityHit> hits;
      scan_body(defs[d], root.name, chain, &hits);
      for (PurityHit& h : hits) {
        const std::string key =
            h.function + "#" + std::to_string(h.line) + "#" + h.token;
        if (hit_keys.insert(key).second) root.hits.push_back(std::move(h));
      }

      const std::string body =
          stripped[static_cast<std::size_t>(defs[d].file)].substr(
              defs[d].body_begin, defs[d].body_end - defs[d].body_begin);
      for (const std::string& call : extract_calls(body)) {
        std::vector<std::size_t> targets;
        if (!resolve(call, &targets)) {
          ++report.unresolved_calls;
          continue;
        }
        for (std::size_t t : targets) {
          if (visited.insert(t).second) {
            parent[t] = d;
            queue.push_back(t);
          }
        }
      }
    }

    std::sort(root.hits.begin(), root.hits.end(),
              [](const PurityHit& a, const PurityHit& b) {
                if (a.file != b.file) return a.file < b.file;
                if (a.line != b.line) return a.line < b.line;
                return a.token < b.token;
              });
    report.roots.push_back(std::move(root));
  }

  std::sort(report.roots.begin(), report.roots.end(),
            [](const PurityRoot& a, const PurityRoot& b) {
              return a.name < b.name;
            });
  return report;
}

bool purity_clean(const PurityReport& report) {
  for (const PurityRoot& r : report.roots)
    if (!r.hits.empty()) return false;
  return true;
}

std::string purity_to_json(const PurityReport& report) {
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
  std::ostringstream os;
  std::size_t total_hits = 0;
  for (const PurityRoot& r : report.roots) total_hits += r.hits.size();
  os << "{\n  \"tool\": \"mmhand_purity\",\n  \"files_scanned\": "
     << report.files_scanned
     << ",\n  \"functions_indexed\": " << report.functions_indexed
     << ",\n  \"unresolved_calls\": " << report.unresolved_calls
     << ",\n  \"clean\": " << (purity_clean(report) ? "true" : "false")
     << ",\n  \"total_hits\": " << total_hits << ",\n  \"roots\": [";
  bool first_root = true;
  for (const PurityRoot& r : report.roots) {
    os << (first_root ? "\n" : ",\n") << "    {\"root\": \""
       << escape(r.name) << "\", \"file\": \"" << escape(r.file)
       << "\", \"line\": " << r.line << ", \"reachable\": " << r.reachable
       << ", \"audited\": " << r.audited << ", \"hits\": [";
    bool first_hit = true;
    for (const PurityHit& h : r.hits) {
      os << (first_hit ? "\n" : ",\n") << "      {\"function\": \""
         << escape(h.function) << "\", \"file\": \"" << escape(h.file)
         << "\", \"line\": " << h.line << ", \"category\": \""
         << escape(h.category) << "\", \"token\": \"" << escape(h.token)
         << "\", \"chain\": [";
      for (std::size_t i = 0; i < h.chain.size(); ++i)
        os << (i == 0 ? "" : ", ") << '"' << escape(h.chain[i]) << '"';
      os << "]}";
      first_hit = false;
    }
    os << (first_hit ? "]}" : "\n    ]}");
    first_root = false;
  }
  os << (first_root ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

}  // namespace mmhand::lint
