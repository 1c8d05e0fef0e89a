#pragma once
// Minimal JSON parser (DOM, read side of util/json.hpp's writer): enough for
// tests to validate the Chrome-trace export and the writer's output; no
// production code parses JSON. Strict on structure (unterminated containers,
// trailing garbage and bad escapes are errors), permissive on whitespace.
// Object member order is preserved, so round-tripping a document written by
// JsonWriter is deterministic.

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cloudrtt::util {

class JsonValue {
 public:
  enum class Kind : unsigned char { Null, Bool, Number, String, Array, Object };

  /// Deepest nesting parse() accepts: the document's root value is at depth
  /// 0 and each enclosing array or object adds one.
  static constexpr int kMaxDepth = 64;

  /// Parse one complete JSON document. Returns nullopt (and fills `error`
  /// with "offset N: reason" when given) on malformed input, including
  /// non-whitespace trailing content.
  [[nodiscard]] static std::optional<JsonValue> parse(
      std::string_view text, std::string* error = nullptr);

  JsonValue() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }

  /// Typed accessors; the fallback is returned when the kind mismatches.
  [[nodiscard]] bool as_bool(bool fallback = false) const;
  [[nodiscard]] double as_number(double fallback = 0.0) const;
  [[nodiscard]] const std::string& as_string() const;

  /// Array elements (empty for non-arrays).
  [[nodiscard]] const std::vector<JsonValue>& items() const { return items_; }
  /// Object members in document order (empty for non-objects).
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const {
    return members_;
  }
  /// First object member named `key`; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  // Convenience lookups for the common "object with scalar fields" shape.
  [[nodiscard]] double number_at(std::string_view key, double fallback) const;
  [[nodiscard]] std::string string_at(std::string_view key,
                                      std::string_view fallback = "") const;

 private:
  friend class JsonParser;
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace cloudrtt::util
