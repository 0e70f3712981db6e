// Minimal JSON value type for experiment specs and batch reports.
//
// Why not an external library: the container bakes in no JSON dependency,
// and the run subsystem needs only a small, deterministic subset — but two
// properties matter enough to implement carefully:
//
//  * Integer fidelity. Seeds are full 64-bit values (derived per-run seeds
//    use the whole range); storing them as doubles would corrupt anything
//    above 2^53. Numbers therefore keep their parsed flavor — uint64, int64
//    or double — and only widen to double on request.
//  * Deterministic serialization. Batch aggregates are compared byte-for-
//    byte across worker-thread counts, so dump() must be a pure function of
//    the value: objects preserve insertion order and doubles print as the
//    shortest round-trippable decimal.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace cohesion::run {

class Json;
using JsonArray = std::vector<Json>;
/// Insertion-ordered object (duplicate keys rejected by the parser).
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}
  Json(bool b) : v_(b) {}
  Json(double d) : v_(d) {}
  Json(int i) : v_(static_cast<std::int64_t>(i)) {}
  Json(long i) : v_(static_cast<std::int64_t>(i)) {}
  Json(long long i) : v_(static_cast<std::int64_t>(i)) {}
  Json(unsigned u) : v_(static_cast<std::uint64_t>(u)) {}
  Json(unsigned long u) : v_(static_cast<std::uint64_t>(u)) {}
  Json(unsigned long long u) : v_(static_cast<std::uint64_t>(u)) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(std::string_view s) : v_(std::string(s)) {}
  Json(JsonArray a) : v_(std::move(a)) {}
  Json(JsonObject o) : v_(std::move(o)) {}

  static Json object() { return Json(JsonObject{}); }
  static Json array() { return Json(JsonArray{}); }

  /// Deepest array/object nesting parse() accepts. The parser recurses per
  /// level, so the bound is what keeps a hostile document (a wire line of a
  /// million '[') from overflowing the stack.
  static constexpr std::size_t kMaxParseDepth = 512;

  /// Parse a complete JSON document; throws std::runtime_error with a
  /// character offset on malformed input, trailing garbage, or nesting
  /// deeper than kMaxParseDepth.
  static Json parse(std::string_view text);
  static Json parse_file(const std::string& path);

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(v_) || std::holds_alternative<std::int64_t>(v_) ||
           std::holds_alternative<std::uint64_t>(v_);
  }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<JsonArray>(v_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<JsonObject>(v_); }

  /// Typed accessors throw std::runtime_error on kind mismatch (and on
  /// narrowing that would change the value, e.g. as_uint of -1 or of 2.5).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& items() const;
  [[nodiscard]] JsonArray& items();
  [[nodiscard]] const JsonObject& entries() const;
  [[nodiscard]] JsonObject& entries();

  // --- object helpers -------------------------------------------------------
  [[nodiscard]] bool contains(std::string_view key) const;
  /// Pointer to the member value, or nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(std::string_view key) const;
  [[nodiscard]] Json* find(std::string_view key);
  /// Member access that throws std::runtime_error naming the missing key.
  [[nodiscard]] const Json& at(std::string_view key) const;
  /// Insert-or-assign preserving insertion order.
  void set(std::string_view key, Json value);

  // Lookup-with-default for the common "optional spec field" pattern.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::uint64_t uint_or(std::string_view key, std::uint64_t fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key, std::string_view fallback) const;

  /// Serialize. indent < 0 gives a single line; otherwise pretty-print with
  /// `indent` spaces per level. Deterministic (see header comment).
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Structural equality. Numbers compare by value across flavors (1 ==
  /// 1.0); objects compare order-sensitively, matching dump() equality.
  bool operator==(const Json& other) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::int64_t, std::uint64_t, std::string, JsonArray,
               JsonObject>
      v_;
};

}  // namespace cohesion::run
