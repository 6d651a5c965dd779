#include "mmhand/common/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "mmhand/common/error.hpp"

namespace mmhand::json {

namespace {

/// Deepest array/object nesting accepted.  The repo's own documents nest
/// a handful of levels; the cap keeps a hostile input from exhausting
/// the stack of this recursive parser.
constexpr int kMaxDepth = 256;

/// Recursive-descent parser over a borrowed buffer.
struct Parser {
  const char* p;
  const char* end;
  std::string error;
  int depth = 0;

  bool fail(const std::string& what, const char* at) {
    if (error.empty()) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%zd",
                    static_cast<std::ptrdiff_t>(at - start));
      error = what + " at offset " + buf;
    }
    return false;
  }

  const char* start = nullptr;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
      ++p;
  }

  bool literal(const char* word, std::size_t n) {
    if (static_cast<std::size_t>(end - p) < n) return false;
    for (std::size_t i = 0; i < n; ++i)
      if (p[i] != word[i]) return false;
    p += n;
    return true;
  }

  bool parse_string(std::string& out) {
    const char* at = p;
    if (p >= end || *p != '"') return fail("expected string", at);
    ++p;
    out.clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return fail("unterminated escape", at);
        switch (*p) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (end - p < 5) return fail("short \\u escape", at);
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char c = p[i];
              code <<= 4;
              if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
              else if (c >= 'a' && c <= 'f')
                code |= static_cast<unsigned>(c - 'a' + 10);
              else if (c >= 'A' && c <= 'F')
                code |= static_cast<unsigned>(c - 'A' + 10);
              else
                return fail("bad \\u escape", at);
            }
            p += 4;
            // UTF-8 encode (no surrogate-pair handling; our emitters
            // only escape control characters, all below U+0080).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return fail("unknown escape", at);
        }
        ++p;
      } else {
        out.push_back(*p);
        ++p;
      }
    }
    if (p >= end) return fail("unterminated string", at);
    ++p;  // closing quote
    return true;
  }

  bool parse_value(Value& out) {
    skip_ws();
    const char* at = p;
    if (p >= end) return fail("unexpected end of input", at);
    if (depth >= kMaxDepth) return fail("nesting too deep", at);
    struct Nest {
      int& depth;
      explicit Nest(int& d) : depth(++d) {}
      ~Nest() { --depth; }
    } nest(depth);
    switch (*p) {
      case '{': {
        ++p;
        Object obj;
        skip_ws();
        if (p < end && *p == '}') {
          ++p;
          out = Value::make_object(std::move(obj));
          return true;
        }
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (p >= end || *p != ':') return fail("expected ':'", p);
          ++p;
          Value v;
          if (!parse_value(v)) return false;
          obj.emplace(std::move(key), std::move(v));
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == '}') {
            ++p;
            out = Value::make_object(std::move(obj));
            return true;
          }
          return fail("expected ',' or '}'", p);
        }
      }
      case '[': {
        ++p;
        Array arr;
        skip_ws();
        if (p < end && *p == ']') {
          ++p;
          out = Value::make_array(std::move(arr));
          return true;
        }
        while (true) {
          Value v;
          if (!parse_value(v)) return false;
          arr.push_back(std::move(v));
          skip_ws();
          if (p < end && *p == ',') {
            ++p;
            continue;
          }
          if (p < end && *p == ']') {
            ++p;
            out = Value::make_array(std::move(arr));
            return true;
          }
          return fail("expected ',' or ']'", p);
        }
      }
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Value::make_string(std::move(s));
        return true;
      }
      case 't':
        if (literal("true", 4)) {
          out = Value::make_bool(true);
          return true;
        }
        return fail("bad literal", at);
      case 'f':
        if (literal("false", 5)) {
          out = Value::make_bool(false);
          return true;
        }
        return fail("bad literal", at);
      case 'n':
        if (literal("null", 4)) {
          out = Value();
          return true;
        }
        return fail("bad literal", at);
      default: {
        char* num_end = nullptr;
        const double v = std::strtod(p, &num_end);
        if (num_end == p || num_end > end) return fail("bad number", at);
        p = num_end;
        out = Value::make_number(v);
        return true;
      }
    }
  }
};

}  // namespace

bool Value::as_bool() const {
  MMHAND_CHECK(is_bool(), "json value is not a bool");
  return bool_;
}

double Value::as_number() const {
  MMHAND_CHECK(is_number(), "json value is not a number");
  return number_;
}

const std::string& Value::as_string() const {
  MMHAND_CHECK(is_string(), "json value is not a string");
  return string_;
}

const Array& Value::as_array() const {
  MMHAND_CHECK(is_array(), "json value is not an array");
  return *array_;
}

const Object& Value::as_object() const {
  MMHAND_CHECK(is_object(), "json value is not an object");
  return *object_;
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

double Value::number_or(const std::string& key, double fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->is_number() ? v->number_ : fallback;
}

std::string Value::string_or(const std::string& key,
                             const std::string& fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->is_string() ? v->string_ : fallback;
}

Value Value::parse(const std::string& text, std::string* error) {
  Parser parser{text.data(), text.data() + text.size(), {}};
  parser.start = text.data();
  Value out;
  bool ok = parser.parse_value(out);
  if (ok) {
    parser.skip_ws();
    if (parser.p != parser.end)
      ok = parser.fail("trailing garbage", parser.p);
  }
  if (!ok) {
    if (error != nullptr) *error = parser.error;
    return Value();
  }
  if (error != nullptr) error->clear();
  return out;
}

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double n) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array(Array a) {
  Value v;
  v.kind_ = Kind::kArray;
  v.array_ = std::make_shared<Array>(std::move(a));
  return v;
}

Value Value::make_object(Object o) {
  Value v;
  v.kind_ = Kind::kObject;
  v.object_ = std::make_shared<Object>(std::move(o));
  return v;
}

}  // namespace mmhand::json
