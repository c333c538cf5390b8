#include "core/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace lcl::core::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  /// Nesting guard: a hostile document must not be able to recurse
  /// the parser off the stack.
  static constexpr int kMaxDepth = 192;

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth) fail("nesting too deep");
        Value v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        Value v;
        v.type = Value::Type::kString;
        v.str = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("bad literal");
        Value v;
        v.type = Value::Type::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("bad literal");
        Value v;
        v.type = Value::Type::kBool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      }
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.type = Value::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.type = Value::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by the snapshot writer; map them to U+FFFD).
          if (code >= 0xD800 && code <= 0xDFFF) code = 0xFFFD;
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(parsed)) {
      pos_ = start;
      fail("bad number '" + token + "'");
    }
    Value v;
    v.type = Value::Type::kNumber;
    v.number = parsed;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Value::number_or(double fallback) const {
  return type == Type::kNumber ? number : fallback;
}

std::int64_t Value::int_or(std::int64_t fallback) const {
  if (type != Type::kNumber) return fallback;
  // Casting an out-of-range double to int64 is UB; the never-throw
  // accessor contract resolves such numbers (and NaN) to the fallback.
  // 9223372036854775808.0 is exactly 2^63.
  if (!(number >= -9223372036854775808.0 &&
        number < 9223372036854775808.0)) {
    return fallback;
  }
  return static_cast<std::int64_t>(number);
}

bool Value::bool_or(bool fallback) const {
  return type == Type::kBool ? boolean : fallback;
}

const std::string& Value::string_or(const std::string& fallback) const {
  return type == Type::kString ? str : fallback;
}

double Value::get_number(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->number_or(fallback);
}

bool Value::get_bool(std::string_view key, bool fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->bool_or(fallback);
}

std::string Value::get_string(std::string_view key,
                              const std::string& fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->string_or(fallback);
}

std::string format_number(double v, const char* fallback_fmt) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  if (v == std::floor(v) && v >= -9007199254740992.0 &&
      v <= 9007199254740992.0) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), fallback_fmt, v);
  }
  return buf;
}

namespace {

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double v) {
  out += format_number(v, "%.17g");
}

void dump_value(std::string& out, const Value& v, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string inner(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (v.type) {
    case Value::Type::kNull: out += "null"; break;
    case Value::Type::kBool: out += v.boolean ? "true" : "false"; break;
    case Value::Type::kNumber: dump_number(out, v.number); break;
    case Value::Type::kString: dump_string(out, v.str); break;
    case Value::Type::kArray: {
      if (v.array.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        out += inner;
        dump_value(out, v.array[i], indent + 1);
        if (i + 1 < v.array.size()) out += ',';
        out += '\n';
      }
      out += pad + "]";
      break;
    }
    case Value::Type::kObject: {
      if (v.object.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        out += inner;
        dump_string(out, v.object[i].first);
        out += ": ";
        dump_value(out, v.object[i].second, indent + 1);
        if (i + 1 < v.object.size()) out += ',';
        out += '\n';
      }
      out += pad + "}";
      break;
    }
  }
}

}  // namespace

std::string dump(const Value& v) {
  std::string out;
  dump_value(out, v, 0);
  out += '\n';
  return out;
}

Value parse(std::string_view text) {
  return Parser(text).parse_document();
}

Value parse_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("json: cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  if (!f && !f.eof()) throw std::runtime_error("json: cannot read " + path);
  return parse(buf.str());
}

}  // namespace lcl::core::json
