// A minimal deterministic JSON tree, writer, and parser.
//
// The observability layer (src/obs/) exports traces and bench results as
// JSON, and the trace-replay checker reads them back. Determinism is a
// hard requirement — two runs with the same RNG seed must serialize to
// byte-identical output — so objects preserve insertion order (a sorted
// map would also be deterministic, but insertion order keeps the schema
// readable) and doubles are printed with a fixed shortest-round-trip
// format. The parser is bounds-checked and throws JsonError on malformed
// input; it exists so replay can work from the exported file alone.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace dynvote {

class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// A JSON value. Objects are ordered vectors of (key, value) pairs;
/// duplicate keys are not rejected but lookup returns the first match.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kUint,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool v) : value_(v) {}
  JsonValue(std::int64_t v) : value_(v) {}
  JsonValue(int v) : value_(std::int64_t{v}) {}
  JsonValue(std::uint64_t v) : value_(v) {}
  JsonValue(double v) : value_(v) {}
  JsonValue(std::string v) : value_(std::move(v)) {}
  JsonValue(std::string_view v) : value_(std::string(v)) {}
  JsonValue(const char* v) : value_(std::string(v)) {}
  JsonValue(Array v) : value_(std::move(v)) {}
  JsonValue(Object v) : value_(std::move(v)) {}

  static JsonValue array() { return JsonValue(Array{}); }
  static JsonValue object() { return JsonValue(Object{}); }

  [[nodiscard]] Kind kind() const noexcept {
    return static_cast<Kind>(value_.index());
  }
  [[nodiscard]] bool is_null() const noexcept { return kind() == Kind::kNull; }
  [[nodiscard]] bool is_object() const noexcept { return kind() == Kind::kObject; }

  // Checked accessors — throw JsonError on kind mismatch (numbers convert
  // between signed/unsigned/double when the value fits).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Appends to an array value.
  void push_back(JsonValue v);
  /// Appends a key to an object value (no de-duplication).
  void set(std::string key, JsonValue v);
  /// Reserves capacity in an array or object value. Builders with a known
  /// field count (the trace exporter emits thousands of small objects)
  /// use this to skip the doubling reallocations.
  void reserve(std::size_t n);

  /// First value under `key`, or nullptr if absent / not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// First value under `key`; throws JsonError if absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  /// Compact serialization (no whitespace). Deterministic: preserves
  /// object insertion order, fixed number formatting.
  [[nodiscard]] std::string dump() const;
  /// Pretty serialization with two-space indentation (still deterministic).
  [[nodiscard]] std::string dump_pretty() const;

  /// Parses a complete JSON document; trailing garbage is an error.
  static JsonValue parse(std::string_view text);

 private:
  void write(std::string& out, int indent, int depth) const;

  // One compact alternative per Kind, in Kind order (kind() reads the
  // variant index). A scalar node costs 48 bytes instead of carrying an
  // always-constructed string and two vectors — the JSON layer's cost is
  // dominated by tree construction/destruction in the trace pipeline.
  std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double,
               std::string, Array, Object>
      value_;
};

}  // namespace dynvote
