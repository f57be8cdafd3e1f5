// Minimal deterministic JSON for the vpartd wire protocol.
//
// Dependency-free by design (the container bakes in no JSON library and
// the ROADMAP forbids adding one).  Objects preserve insertion order in
// a vector of pairs — not a hash map — so serialization is byte-stable
// for a given construction sequence and the determinism lint has nothing
// to flag.  The parser is bounded recursive descent with a depth cap, so
// a hostile frame cannot blow the stack; the framing layer already
// bounds payload size.
//
// A value is a 16-byte tagged union: null, bool, int64_t, uint64_t and
// double sit inline; a string, array or object is one owned heap object
// behind a pointer.  A part vector of n entries therefore costs 16n
// bytes, not n full-size values.  Numbers: an integer token (no
// fraction, no exponent) is read exactly with std::from_chars into an
// int64_t, or a uint64_t above INT64_MAX; any other token, or an integer
// outside both ranges, is a double, and a double that overflows or
// underflows is malformed.  Every number is written with std::to_chars:
// integers exactly, an integral double below 1e17 as its integer digits
// (the same text an integer prints), any other double in the shortest
// form that reads back to the same double; NaN and infinities print as
// null.  Duplicate object keys keep the last value on lookup.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vlsipart::service {

class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() : uint_(0) {}  // null
  JsonValue(const JsonValue& other);
  JsonValue(JsonValue&& other) noexcept
      : uint_(other.uint_), kind_(other.kind_) {
    other.kind_ = Kind::kNull;
  }
  JsonValue& operator=(const JsonValue& other);
  JsonValue& operator=(JsonValue&& other) noexcept {
    if (this != &other) {
      if (owns_heap()) release();
      uint_ = other.uint_;
      kind_ = other.kind_;
      other.kind_ = Kind::kNull;
    }
    return *this;
  }
  ~JsonValue() {
    if (owns_heap()) release();
  }

  static JsonValue boolean(bool v);
  static JsonValue number(double v);
  static JsonValue integer(std::int64_t v);
  static JsonValue unsigned_integer(std::uint64_t v);
  static JsonValue string(std::string v);
  static JsonValue array();
  static JsonValue object();

  Type type() const;
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint ||
           kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Scalar accessors never throw; a type mismatch yields the fallback,
  // and so does an as_int() number outside the int64_t range (or NaN).
  // as_int() truncates fractions toward zero.
  bool as_bool(bool fallback = false) const;
  double as_number(double fallback = 0.0) const;
  std::int64_t as_int(std::int64_t fallback = 0) const;
  std::string as_string(std::string fallback = {}) const;
  /// The exact value of a number that is an integer in [0, 2^64 - 1]
  /// (an integral double counts); nullopt for anything else.
  std::optional<std::uint64_t> as_uint() const;

  /// Object lookup (last occurrence wins); nullptr when absent or when
  /// this value is not an object.
  const JsonValue* find(std::string_view key) const;
  /// Append a member (no replace — callers build objects once).  A
  /// non-object becomes an empty object first.
  JsonValue& set(std::string key, JsonValue value);
  const std::vector<Member>& members() const;

  /// Array append / access.  A non-array becomes an empty array first.
  JsonValue& push(JsonValue value);
  const std::vector<JsonValue>& items() const;

  std::string dump() const;
  void dump_to(std::string& out) const;

 private:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kUint,  // only values above INT64_MAX, so each integer has one kind
    kDouble,
    kString,  // this and the kinds below own a heap object
    kArray,
    kObject
  };

  friend class JsonParser;

  bool owns_heap() const { return kind_ >= Kind::kString; }
  void release() noexcept;
  void become(Kind kind);  // kArray or kObject, emptied unless already

  union {
    bool bool_;
    std::int64_t int_;
    std::uint64_t uint_;
    double double_;
    std::string* string_;
    std::vector<JsonValue>* items_;
    std::vector<Member>* members_;
  };
  Kind kind_ = Kind::kNull;
};

static_assert(sizeof(JsonValue) <= 24, "a part vector is n JsonValues");

/// Parse one complete JSON document (surrounding whitespace allowed,
/// trailing garbage rejected).  Returns false and sets *error (if
/// non-null) on malformed input; `out` is reset to null first.
bool parse_json(std::string_view text, JsonValue& out, std::string* error);

}  // namespace vlsipart::service
