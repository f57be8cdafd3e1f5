#include "src/service/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vlsipart::service {

JsonValue JsonValue::boolean(bool v) {
  JsonValue out;
  out.type_ = Type::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::number(double v) {
  JsonValue out;
  out.type_ = Type::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::integer(std::int64_t v) {
  return number(static_cast<double>(v));
}

JsonValue JsonValue::string(std::string v) {
  JsonValue out;
  out.type_ = Type::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::array() {
  JsonValue out;
  out.type_ = Type::kArray;
  return out;
}

JsonValue JsonValue::object() {
  JsonValue out;
  out.type_ = Type::kObject;
  return out;
}

bool JsonValue::as_bool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

double JsonValue::as_number(double fallback) const {
  return type_ == Type::kNumber ? number_ : fallback;
}

std::int64_t JsonValue::as_int(std::int64_t fallback) const {
  // [-2^63, 2^63) is exactly the doubles the cast below is defined for;
  // NaN fails both comparisons.
  if (type_ != Type::kNumber || !(number_ >= -0x1p63 && number_ < 0x1p63)) {
    return fallback;
  }
  return static_cast<std::int64_t>(number_);
}

std::string JsonValue::as_string(std::string fallback) const {
  return type_ == Type::kString ? string_ : std::move(fallback);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) found = &value;
  }
  return found;
}

JsonValue& JsonValue::set(std::string key, JsonValue value) {
  type_ = Type::kObject;
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

JsonValue& JsonValue::push(JsonValue value) {
  type_ = Type::kArray;
  items_.push_back(std::move(value));
  return *this;
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(double v, std::string& out) {
  if (!std::isfinite(v)) {  // not representable in JSON
    out += "null";
    return;
  }
  char buf[40];
  // Integers print without a fraction so ids and cuts stay greppable.
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out += buf;
}

}  // namespace

void JsonValue::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      dump_number(number_, out);
      break;
    case Type::kString:
      dump_string(string_, out);
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : items_) {
        if (!first) out += ',';
        first = false;
        item.dump_to(out);
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) out += ',';
        first = false;
        dump_string(key, out);
        out += ':';
        value.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool parse_document(JsonValue& out) {
    skip_whitespace();
    if (!parse_value(out, 0)) return false;
    skip_whitespace();
    if (pos_ != text_.size()) return fail("trailing garbage after document");
    return true;
  }

 private:
  bool fail(const std::string& message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return fail(std::string("expected '") + expected + "'");
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue::string(std::move(s));
        return true;
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          out = JsonValue::boolean(true);
          return true;
        }
        return fail("bad literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          out = JsonValue::boolean(false);
          return true;
        }
        return fail("bad literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          out = JsonValue();
          return true;
        }
        return fail("bad literal");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out = JsonValue::object();
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_whitespace();
      std::string key;
      if (!parse_string(key)) return false;
      skip_whitespace();
      if (!consume(':')) return false;
      skip_whitespace();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.set(std::move(key), std::move(value));
      skip_whitespace();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume('}');
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    ++pos_;  // '['
    out = JsonValue::array();
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_whitespace();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.push(std::move(value));
      skip_whitespace();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume(']');
    }
  }

  static void append_utf8(std::uint32_t cp, std::string& out) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_hex4(std::uint32_t& value) {
    if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
    value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("bad \\u escape");
      }
    }
    return true;
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected string");
    }
    ++pos_;
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          return fail("raw control character in string");
        }
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
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
          std::uint32_t cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 1 < text_.size() &&
              text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
            pos_ += 2;
            std::uint32_t low = 0;
            if (!parse_hex4(low)) return false;
            if (low >= 0xDC00 && low <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else {
              return fail("bad surrogate pair");
            }
          }
          append_utf8(cp, out);
          break;
        }
        default:
          return fail("bad escape character");
      }
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("unexpected character");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      pos_ = start;
      return fail("malformed number");
    }
    out = JsonValue::number(value);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string* error_;
};

}  // namespace

bool parse_json(std::string_view text, JsonValue& out, std::string* error) {
  out = JsonValue();
  if (error != nullptr) error->clear();
  Parser parser(text, error);
  JsonValue parsed;
  if (!parser.parse_document(parsed)) return false;
  out = std::move(parsed);
  return true;
}

}  // namespace vlsipart::service
