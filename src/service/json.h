// Minimal deterministic JSON for the vpartd wire protocol.
//
// Dependency-free by design (the container bakes in no JSON library and
// the ROADMAP forbids adding one).  Objects preserve insertion order in
// a vector of pairs — not a hash map — so serialization is byte-stable
// for a given construction sequence and the determinism lint has nothing
// to flag.  The parser is bounded recursive descent with a depth cap, so
// a hostile frame cannot blow the stack; the framing layer already
// bounds payload size.  Subset notes: numbers are IEEE doubles
// (integers round-trip exactly up to 2^53 — cuts, ids and part vectors
// fit comfortably), duplicate object keys keep the last value on lookup.
#pragma once

#include <cstdint>
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

  JsonValue() = default;  // null

  static JsonValue boolean(bool v);
  static JsonValue number(double v);
  static JsonValue integer(std::int64_t v);
  static JsonValue string(std::string v);
  static JsonValue array();
  static JsonValue object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Scalar accessors never throw; a type mismatch yields the fallback,
  // and so does an as_int() number outside the int64_t range (or NaN).
  // as_int() truncates fractions toward zero.
  bool as_bool(bool fallback = false) const;
  double as_number(double fallback = 0.0) const;
  std::int64_t as_int(std::int64_t fallback = 0) const;
  std::string as_string(std::string fallback = {}) const;

  /// Object lookup (last occurrence wins); nullptr when absent or when
  /// this value is not an object.
  const JsonValue* find(std::string_view key) const;
  /// Append a member (no replace — callers build objects once).
  JsonValue& set(std::string key, JsonValue value);
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Array append / access.
  JsonValue& push(JsonValue value);
  const std::vector<JsonValue>& items() const { return items_; }

  std::string dump() const;
  void dump_to(std::string& out) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parse one complete JSON document (surrounding whitespace allowed,
/// trailing garbage rejected).  Returns false and sets *error (if
/// non-null) on malformed input; `out` is reset to null first.
bool parse_json(std::string_view text, JsonValue& out, std::string* error);

}  // namespace vlsipart::service
