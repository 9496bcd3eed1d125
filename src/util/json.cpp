#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace dynvote {
namespace {

[[noreturn]] void fail(const std::string& what) { throw JsonError(what); }

}  // namespace

bool JsonValue::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  fail("json: not a bool");
}

std::int64_t JsonValue::as_int() const {
  switch (kind()) {
    case Kind::kInt:
      return std::get<std::int64_t>(value_);
    case Kind::kUint: {
      const std::uint64_t u = std::get<std::uint64_t>(value_);
      if (u > static_cast<std::uint64_t>(INT64_MAX)) {
        fail("json: uint out of int64 range");
      }
      return static_cast<std::int64_t>(u);
    }
    case Kind::kDouble: {
      const double d = std::get<double>(value_);
      const auto i = static_cast<std::int64_t>(d);
      if (static_cast<double>(i) != d) fail("json: non-integral double");
      return i;
    }
    default:
      fail("json: not a number");
  }
}

std::uint64_t JsonValue::as_uint() const {
  switch (kind()) {
    case Kind::kUint:
      return std::get<std::uint64_t>(value_);
    case Kind::kInt: {
      const std::int64_t i = std::get<std::int64_t>(value_);
      if (i < 0) fail("json: negative int as uint");
      return static_cast<std::uint64_t>(i);
    }
    case Kind::kDouble: {
      const double d = std::get<double>(value_);
      if (d < 0) fail("json: negative double as uint");
      const auto u = static_cast<std::uint64_t>(d);
      if (static_cast<double>(u) != d) fail("json: non-integral double");
      return u;
    }
    default:
      fail("json: not a number");
  }
}

double JsonValue::as_double() const {
  switch (kind()) {
    case Kind::kDouble:
      return std::get<double>(value_);
    case Kind::kInt:
      return static_cast<double>(std::get<std::int64_t>(value_));
    case Kind::kUint:
      return static_cast<double>(std::get<std::uint64_t>(value_));
    default:
      fail("json: not a number");
  }
}

const std::string& JsonValue::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  fail("json: not a string");
}

const JsonValue::Array& JsonValue::as_array() const {
  if (const Array* a = std::get_if<Array>(&value_)) return *a;
  fail("json: not an array");
}

const JsonValue::Object& JsonValue::as_object() const {
  if (const Object* o = std::get_if<Object>(&value_)) return *o;
  fail("json: not an object");
}

void JsonValue::push_back(JsonValue v) {
  Array* a = std::get_if<Array>(&value_);
  if (a == nullptr) fail("json: push_back on non-array");
  a->push_back(std::move(v));
}

void JsonValue::set(std::string key, JsonValue v) {
  Object* o = std::get_if<Object>(&value_);
  if (o == nullptr) fail("json: set on non-object");
  o->emplace_back(std::move(key), std::move(v));
}

void JsonValue::reserve(std::size_t n) {
  if (Array* a = std::get_if<Array>(&value_)) {
    a->reserve(n);
    return;
  }
  if (Object* o = std::get_if<Object>(&value_)) {
    o->reserve(n);
    return;
  }
  fail("json: reserve on non-container");
}

const JsonValue* JsonValue::find(std::string_view key) const {
  const Object* o = std::get_if<Object>(&value_);
  if (o == nullptr) return nullptr;
  for (const auto& [k, v] : *o) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) fail("json: missing key '" + std::string(key) + "'");
  return *v;
}

namespace {

[[nodiscard]] constexpr bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/// Escapes `s` into a quoted JSON string literal appended to `out`.
void json_escape(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t i = 0;
  while (i < s.size()) {
    // Bulk-copy the (overwhelmingly common) run of plain characters.
    std::size_t run = i;
    while (run < s.size() && !needs_escape(s[run])) ++run;
    out.append(s.data() + i, run - i);
    i = run;
    if (i >= s.size()) break;
    const char c = s[i++];
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.push_back('"');
}

}  // namespace

void JsonValue::write(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind()) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += std::get<bool>(value_) ? "true" : "false";
      break;
    case Kind::kInt: {
      char buf[24];
      const auto [end, ec] =
          std::to_chars(buf, buf + sizeof(buf), std::get<std::int64_t>(value_));
      if (ec != std::errc{}) fail("json: int format");
      out.append(buf, end);
      break;
    }
    case Kind::kUint: {
      char buf[24];
      const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf),
                                           std::get<std::uint64_t>(value_));
      if (ec != std::errc{}) fail("json: uint format");
      out.append(buf, end);
      break;
    }
    case Kind::kDouble: {
      const double d = std::get<double>(value_);
      if (!std::isfinite(d)) fail("json: non-finite double");
      // Shortest round-trip representation; deterministic across runs.
      char buf[32];
      const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), d);
      if (ec != std::errc{}) fail("json: double format");
      out.append(buf, end);
      break;
    }
    case Kind::kString:
      json_escape(out, std::get<std::string>(value_));
      break;
    case Kind::kArray: {
      const Array& array = std::get<Array>(value_);
      out.push_back('[');
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline(depth + 1);
        array[i].write(out, indent, depth + 1);
      }
      if (!array.empty()) newline(depth);
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      const Object& object = std::get<Object>(value_);
      out.push_back('{');
      for (std::size_t i = 0; i < object.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline(depth + 1);
        json_escape(out, object[i].first);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        object[i].second.write(out, indent, depth + 1);
      }
      if (!object.empty()) newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string JsonValue::dump_pretty() const {
  std::string out;
  write(out, 2, 0);
  out.push_back('\n');
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("json: trailing characters");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("json: unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("json: expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("json: bad literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("json: bad literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("json: bad literal");
        return JsonValue(nullptr);
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    // A trace document is thousands of small event objects; starting at
    // a realistic field count skips the 1->2->4->8 doubling growth.
    obj.reserve(8);
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    arr.reserve(4);  // most arrays here are short process-id lists
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Bulk-copy up to the next quote or escape; most strings contain
      // neither an escape nor a control character.
      std::size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\') {
        ++run;
      }
      out.append(text_.data() + pos_, run - pos_);
      pos_ = run;
      if (pos_ >= text_.size()) fail("json: unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (pos_ >= text_.size()) fail("json: unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("json: bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("json: bad \\u escape");
            }
          }
          // The writer only emits \u for control characters; decode the
          // BMP code point as UTF-8 without surrogate-pair handling.
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
          fail("json: bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_float = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_float = is_float || c == '.' || c == 'e' || c == 'E';
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("json: bad number");
    if (!is_float) {
      if (token[0] == '-') {
        std::int64_t v = 0;
        const auto [p, ec] =
            std::from_chars(token.data(), token.data() + token.size(), v);
        if (ec != std::errc{} || p != token.data() + token.size()) {
          fail("json: bad number");
        }
        return JsonValue(v);
      }
      std::uint64_t v = 0;
      const auto [p, ec] =
          std::from_chars(token.data(), token.data() + token.size(), v);
      if (ec != std::errc{} || p != token.data() + token.size()) {
        fail("json: bad number");
      }
      return JsonValue(v);
    }
    double v = 0;
    const auto [p, ec] =
        std::from_chars(token.data(), token.data() + token.size(), v);
    if (ec != std::errc{} || p != token.data() + token.size()) {
      fail("json: bad number");
    }
    return JsonValue(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace dynvote
