#include "src/service/json.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>

namespace vlsipart::service {

namespace {

constexpr auto kInt64Max =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());

const std::vector<JsonValue>& no_items() {
  static const std::vector<JsonValue> empty;
  return empty;
}

const std::vector<JsonValue::Member>& no_members() {
  static const std::vector<JsonValue::Member> empty;
  return empty;
}

}  // namespace

JsonValue::JsonValue(const JsonValue& other) : uint_(other.uint_) {
  switch (other.kind_) {
    case Kind::kString:
      string_ = new std::string(*other.string_);
      break;
    case Kind::kArray:
      items_ = new std::vector<JsonValue>(*other.items_);
      break;
    case Kind::kObject:
      members_ = new std::vector<Member>(*other.members_);
      break;
    default:
      break;
  }
  kind_ = other.kind_;
}

JsonValue& JsonValue::operator=(const JsonValue& other) {
  if (this != &other) *this = JsonValue(other);
  return *this;
}

void JsonValue::release() noexcept {
  switch (kind_) {
    case Kind::kString:
      delete string_;
      break;
    case Kind::kArray:
      delete items_;
      break;
    case Kind::kObject:
      delete members_;
      break;
    default:
      break;
  }
  kind_ = Kind::kNull;
  uint_ = 0;
}

void JsonValue::become(Kind kind) {
  if (kind_ == kind) return;
  release();
  if (kind == Kind::kArray) {
    items_ = new std::vector<JsonValue>();
  } else {
    members_ = new std::vector<Member>();
  }
  kind_ = kind;
}

JsonValue JsonValue::boolean(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::number(double v) {
  JsonValue out;
  out.kind_ = Kind::kDouble;
  out.double_ = v;
  return out;
}

JsonValue JsonValue::integer(std::int64_t v) {
  JsonValue out;
  out.kind_ = Kind::kInt;
  out.int_ = v;
  return out;
}

JsonValue JsonValue::unsigned_integer(std::uint64_t v) {
  if (v <= kInt64Max) return integer(static_cast<std::int64_t>(v));
  JsonValue out;
  out.kind_ = Kind::kUint;
  out.uint_ = v;
  return out;
}

JsonValue JsonValue::string(std::string v) {
  JsonValue out;
  out.string_ = new std::string(std::move(v));
  out.kind_ = Kind::kString;
  return out;
}

JsonValue JsonValue::array() {
  JsonValue out;
  out.become(Kind::kArray);
  return out;
}

JsonValue JsonValue::object() {
  JsonValue out;
  out.become(Kind::kObject);
  return out;
}

JsonValue::Type JsonValue::type() const {
  switch (kind_) {
    case Kind::kNull: return Type::kNull;
    case Kind::kBool: return Type::kBool;
    case Kind::kString: return Type::kString;
    case Kind::kArray: return Type::kArray;
    case Kind::kObject: return Type::kObject;
    default: return Type::kNumber;
  }
}

bool JsonValue::as_bool(bool fallback) const {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

double JsonValue::as_number(double fallback) const {
  switch (kind_) {
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kUint: return static_cast<double>(uint_);
    case Kind::kDouble: return double_;
    default: return fallback;
  }
}

std::int64_t JsonValue::as_int(std::int64_t fallback) const {
  if (kind_ == Kind::kInt) return int_;
  // [-2^63, 2^63) is exactly the doubles the cast below is defined for;
  // NaN fails both comparisons.  A kUint is above INT64_MAX.
  if (kind_ != Kind::kDouble || !(double_ >= -0x1p63 && double_ < 0x1p63)) {
    return fallback;
  }
  return static_cast<std::int64_t>(double_);
}

std::optional<std::uint64_t> JsonValue::as_uint() const {
  switch (kind_) {
    case Kind::kInt:
      if (int_ < 0) return std::nullopt;
      return static_cast<std::uint64_t>(int_);
    case Kind::kUint:
      return uint_;
    case Kind::kDouble:
      // [0, 2^64) holds exactly the doubles the cast is defined for.
      if (!(double_ >= 0.0 && double_ < 0x1p64) ||
          double_ != std::floor(double_)) {
        return std::nullopt;
      }
      return static_cast<std::uint64_t>(double_);
    default:
      return std::nullopt;
  }
}

std::string JsonValue::as_string(std::string fallback) const {
  return kind_ == Kind::kString ? *string_ : std::move(fallback);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : *members_) {
    if (name == key) found = &value;
  }
  return found;
}

JsonValue& JsonValue::set(std::string key, JsonValue value) {
  become(Kind::kObject);
  members_->emplace_back(std::move(key), std::move(value));
  return *this;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  return kind_ == Kind::kObject ? *members_ : no_members();
}

JsonValue& JsonValue::push(JsonValue value) {
  become(Kind::kArray);
  items_->push_back(std::move(value));
  return *this;
}

const std::vector<JsonValue>& JsonValue::items() const {
  return kind_ == Kind::kArray ? *items_ : no_items();
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  static constexpr char kHex[] = "0123456789abcdef";
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
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

template <class T>
void dump_chars(T v, std::string& out) {
  char buf[32];  // a double's shortest form is at most 24 characters
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

void dump_double(double v, std::string& out) {
  if (!std::isfinite(v)) {  // not representable in JSON
    out += "null";
  } else if (v == std::floor(v) && std::fabs(v) < 1e17) {
    // Integral doubles print their integer digits, so ids and cuts stay
    // greppable whichever constructor built them.
    dump_chars(static_cast<std::int64_t>(v), out);
  } else {
    dump_chars(v, out);
  }
}

}  // namespace

void JsonValue::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kInt:
      dump_chars(int_, out);
      break;
    case Kind::kUint:
      dump_chars(uint_, out);
      break;
    case Kind::kDouble:
      dump_double(double_, out);
      break;
    case Kind::kString:
      dump_string(*string_, out);
      break;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : *items_) {
        if (!first) out += ',';
        first = false;
        item.dump_to(out);
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : *members_) {
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

bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

/// A friend of JsonValue, so arrays and objects are parsed in place.
class JsonParser {
 public:
  JsonParser(std::string_view text, std::string* error)
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
    std::vector<JsonValue::Member>& members = *out.members_;
    while (true) {
      skip_whitespace();
      JsonValue::Member& member = members.emplace_back();
      if (!parse_string(member.first)) return false;
      skip_whitespace();
      if (!consume(':')) return false;
      skip_whitespace();
      if (!parse_value(member.second, depth + 1)) return false;
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
    std::vector<JsonValue>& items = *out.items_;
    while (true) {
      skip_whitespace();
      if (!parse_value(items.emplace_back(), depth + 1)) return false;
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
      // Copy the run of plain characters up to the next quote, escape
      // or control character in one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') return fail("raw control character in string");
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

  /// Advance over a run of digits; false when there is none.
  bool skip_digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    return pos_ != start;
  }

  /// JSON's number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  /// An integer token is kept exact when an int64_t or a uint64_t holds
  /// it; every other token is a double.
  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
      return fail(pos_ == start ? "unexpected character" : "malformed number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      skip_digits();
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      integral = false;
      if (!skip_digits()) return fail("malformed number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      integral = false;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!skip_digits()) return fail("malformed number");
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (integral) {
      if (*first == '-') {
        std::int64_t v = 0;
        if (std::from_chars(first, last, v).ec == std::errc()) {
          out = JsonValue::integer(v);
          return true;
        }
      } else {
        std::uint64_t v = 0;
        if (std::from_chars(first, last, v).ec == std::errc()) {
          out = JsonValue::unsigned_integer(v);
          return true;
        }
      }
    }
    double v = 0.0;
    if (std::from_chars(first, last, v).ec != std::errc()) {
      pos_ = start;
      return fail("malformed number");
    }
    out = JsonValue::number(v);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string* error_;
};

bool parse_json(std::string_view text, JsonValue& out, std::string* error) {
  out = JsonValue();
  if (error != nullptr) error->clear();
  JsonParser parser(text, error);
  JsonValue parsed;
  if (!parser.parse_document(parsed)) return false;
  out = std::move(parsed);
  return true;
}

}  // namespace vlsipart::service
