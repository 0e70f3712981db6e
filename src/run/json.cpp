#include "run/json.hpp"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace cohesion::run {

namespace {

[[noreturn]] void fail(std::string_view what) { throw std::runtime_error(std::string(what)); }

/// Recursive-descent parser over a string_view with offset-bearing errors.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) error("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void error(std::string_view what) const {
    fail("JSON parse error at offset " + std::to_string(pos_) + ": " + std::string(what));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) error("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) error(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == Json::kMaxParseDepth) {
        error("nesting depth exceeds " + std::to_string(Json::kMaxParseDepth));
      }
      ++depth_;
      Json nested = c == '{' ? parse_object() : parse_array();
      --depth_;
      return nested;
    }
    switch (c) {
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        error("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        error("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        error("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      if (peek() != '"') error("expected object key string");
      std::string key = parse_string();
      for (const auto& [k, v] : obj) {
        if (k == key) error("duplicate object key \"" + key + "\"");
      }
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Json(std::move(obj));
      }
      error("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Json(std::move(arr));
      }
      error("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) error("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) error("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = parse_hex4();
          // Surrogate pair handling for completeness; specs are ASCII in
          // practice.
          if (code >= 0xD800 && code <= 0xDBFF && text_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) error("invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
          }
          append_utf8(out, code);
          break;
        }
        default: error("invalid escape character");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) error("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else error("invalid hex digit in \\u escape");
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Json parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") error("invalid number");
    if (integral) {
      // Keep the exact integer flavor: uint64 for non-negative, int64 for
      // negative. Out-of-range integers fall through to double.
      if (token[0] != '-') {
        std::uint64_t u = 0;
        const auto [p, ec] = std::from_chars(token.begin(), token.end(), u);
        if (ec == std::errc() && p == token.end()) return Json(u);
      } else {
        std::int64_t i = 0;
        const auto [p, ec] = std::from_chars(token.begin(), token.end(), i);
        if (ec == std::errc() && p == token.end()) return Json(i);
      }
    }
    double d = 0.0;
    const auto [p, ec] = std::from_chars(token.begin(), token.end(), d);
    if (ec != std::errc() || p != token.end()) error("invalid number");
    return Json(d);
  }

  std::string_view text_;
  std::size_t depth_ = 0;  // open arrays/objects around the current value
  std::size_t pos_ = 0;
};

/// Shortest decimal that parses back to exactly `d` (tried at increasing
/// precision), so serialization is deterministic and round-trips.
void append_double(std::string& out, double d) {
  if (!std::isfinite(d)) fail("JSON cannot represent a non-finite number");
  char buf[32];
  for (const int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  out += buf;
  // Keep the number flavor visible: "1e5" and "1.5" already look like
  // doubles; a bare integer like "2" would re-parse as uint64, so mark it.
  if (out.find_first_of(".eE", out.size() - std::strlen(buf)) == std::string::npos) {
    out += ".0";
  }
}

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

Json Json::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&v_)) return *b;
  fail("JSON value is not a bool");
}

double Json::as_double() const {
  if (const double* d = std::get_if<double>(&v_)) return *d;
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v_)) return static_cast<double>(*i);
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&v_)) return static_cast<double>(*u);
  fail("JSON value is not a number");
}

std::int64_t Json::as_int() const {
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v_)) return *i;
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&v_)) {
    if (*u <= static_cast<std::uint64_t>(INT64_MAX)) return static_cast<std::int64_t>(*u);
    fail("JSON integer does not fit int64");
  }
  if (const double* d = std::get_if<double>(&v_)) {
    if (*d == static_cast<double>(static_cast<std::int64_t>(*d))) {
      return static_cast<std::int64_t>(*d);
    }
    fail("JSON number is not an integer");
  }
  fail("JSON value is not a number");
}

std::uint64_t Json::as_uint() const {
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&v_)) return *u;
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v_)) {
    if (*i >= 0) return static_cast<std::uint64_t>(*i);
    fail("JSON integer is negative");
  }
  if (const double* d = std::get_if<double>(&v_)) {
    if (*d >= 0.0 && *d == static_cast<double>(static_cast<std::uint64_t>(*d))) {
      return static_cast<std::uint64_t>(*d);
    }
    fail("JSON number is not a non-negative integer");
  }
  fail("JSON value is not a number");
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&v_)) return *s;
  fail("JSON value is not a string");
}

const JsonArray& Json::items() const {
  if (const JsonArray* a = std::get_if<JsonArray>(&v_)) return *a;
  fail("JSON value is not an array");
}

JsonArray& Json::items() {
  if (JsonArray* a = std::get_if<JsonArray>(&v_)) return *a;
  fail("JSON value is not an array");
}

const JsonObject& Json::entries() const {
  if (const JsonObject* o = std::get_if<JsonObject>(&v_)) return *o;
  fail("JSON value is not an object");
}

JsonObject& Json::entries() {
  if (JsonObject* o = std::get_if<JsonObject>(&v_)) return *o;
  fail("JSON value is not an object");
}

bool Json::contains(std::string_view key) const { return find(key) != nullptr; }

const Json* Json::find(std::string_view key) const {
  const JsonObject* o = std::get_if<JsonObject>(&v_);
  if (!o) return nullptr;
  for (const auto& [k, v] : *o) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json* Json::find(std::string_view key) {
  JsonObject* o = std::get_if<JsonObject>(&v_);
  if (!o) return nullptr;
  for (auto& [k, v] : *o) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  if (const Json* v = find(key)) return *v;
  fail("missing JSON object key \"" + std::string(key) + "\"");
}

void Json::set(std::string_view key, Json value) {
  if (Json* v = find(key)) {
    *v = std::move(value);
    return;
  }
  entries().emplace_back(std::string(key), std::move(value));
}

double Json::number_or(std::string_view key, double fallback) const {
  const Json* v = find(key);
  return v ? v->as_double() : fallback;
}

std::uint64_t Json::uint_or(std::string_view key, std::uint64_t fallback) const {
  const Json* v = find(key);
  return v ? v->as_uint() : fallback;
}

bool Json::bool_or(std::string_view key, bool fallback) const {
  const Json* v = find(key);
  return v ? v->as_bool() : fallback;
}

std::string Json::string_or(std::string_view key, std::string_view fallback) const {
  const Json* v = find(key);
  return v ? v->as_string() : std::string(fallback);
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d), ' ');
  };
  if (is_null()) {
    out += "null";
  } else if (const bool* b = std::get_if<bool>(&v_)) {
    out += *b ? "true" : "false";
  } else if (const std::int64_t* i = std::get_if<std::int64_t>(&v_)) {
    out += std::to_string(*i);
  } else if (const std::uint64_t* u = std::get_if<std::uint64_t>(&v_)) {
    out += std::to_string(*u);
  } else if (const double* d = std::get_if<double>(&v_)) {
    append_double(out, *d);
  } else if (const std::string* s = std::get_if<std::string>(&v_)) {
    append_escaped(out, *s);
  } else if (const JsonArray* a = std::get_if<JsonArray>(&v_)) {
    if (a->empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i2 = 0; i2 < a->size(); ++i2) {
      if (i2 > 0) out.push_back(',');
      newline(depth + 1);
      (*a)[i2].dump_to(out, indent, depth + 1);
    }
    newline(depth);
    out.push_back(']');
  } else if (const JsonObject* o = std::get_if<JsonObject>(&v_)) {
    if (o->empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [k, v] : *o) {
      if (!first) out.push_back(',');
      first = false;
      newline(depth + 1);
      append_escaped(out, k);
      out.push_back(':');
      if (indent >= 0) out.push_back(' ');
      v.dump_to(out, indent, depth + 1);
    }
    newline(depth);
    out.push_back('}');
  }
}

bool Json::operator==(const Json& other) const {
  if (is_number() && other.is_number()) {
    // Cross-flavor numeric equality; exact for the integer flavors.
    const bool lu = std::holds_alternative<std::uint64_t>(v_);
    const bool ru = std::holds_alternative<std::uint64_t>(other.v_);
    const bool li = std::holds_alternative<std::int64_t>(v_);
    const bool ri = std::holds_alternative<std::int64_t>(other.v_);
    if ((lu || li) && (ru || ri)) {
      if (lu && ri) return other.as_int() >= 0 && as_uint() == other.as_uint();
      if (li && ru) return as_int() >= 0 && as_uint() == other.as_uint();
      if (lu && ru) return as_uint() == other.as_uint();
      return as_int() == other.as_int();
    }
    return as_double() == other.as_double();
  }
  return v_ == other.v_;
}

}  // namespace cohesion::run
