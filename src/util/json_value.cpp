#include "util/json_value.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>

namespace cloudrtt::util {

namespace {
const std::string kEmptyString;
}  // namespace

bool JsonValue::as_bool(bool fallback) const {
  return kind_ == Kind::Bool ? bool_ : fallback;
}

double JsonValue::as_number(double fallback) const {
  return kind_ == Kind::Number ? number_ : fallback;
}

const std::string& JsonValue::as_string() const {
  return kind_ == Kind::String ? string_ : kEmptyString;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::number_at(std::string_view key, double fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr ? member->as_number(fallback) : fallback;
}

std::string JsonValue::string_at(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* member = find(key);
  if (member == nullptr || !member->is_string()) return std::string{fallback};
  return member->as_string();
}

/// Recursive-descent parser over a string_view; depth-capped so malicious
/// nesting cannot blow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  [[nodiscard]] std::optional<JsonValue> run(std::string* error) {
    JsonValue root;
    if (!parse_value(root, 0)) {
      if (error != nullptr) {
        *error = "offset " + std::to_string(pos_) + ": " + error_;
      }
      return std::nullopt;
    }
    skip_whitespace();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "offset " + std::to_string(pos_) + ": trailing content";
      }
      return std::nullopt;
    }
    return root;
  }

 private:
  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool fail(std::string_view why) {
    if (error_.empty()) error_ = std::string{why};
    return false;
  }

  [[nodiscard]] bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return fail("invalid literal");
    }
    pos_ += literal.size();
    return true;
  }

  [[nodiscard]] bool parse_string(std::string& out) {
    // Caller consumed nothing; pos_ is at the opening quote.
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected string");
    }
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if (ch == '"') {
        ++pos_;
        return true;
      }
      if (ch == '\\') {
        if (pos_ + 1 >= text_.size()) return fail("bad escape");
        const char escaped = text_[pos_ + 1];
        pos_ += 2;
        switch (escaped) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            std::uint32_t code = 0;
            for (int i = 0; i < 4; ++i) {
              const char hex = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4U;
              if (hex >= '0' && hex <= '9') {
                code |= static_cast<std::uint32_t>(hex - '0');
              } else if (hex >= 'a' && hex <= 'f') {
                code |= static_cast<std::uint32_t>(hex - 'a' + 10);
              } else if (hex >= 'A' && hex <= 'F') {
                code |= static_cast<std::uint32_t>(hex - 'A' + 10);
              } else {
                return fail("bad \\u escape");
              }
            }
            pos_ += 4;
            // Encode the BMP code point as UTF-8 (surrogate pairs are passed
            // through unpaired; the writer never emits them).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
              out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
            } else {
              out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
              out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
              out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
            }
            break;
          }
          default: return fail("unknown escape");
        }
        continue;
      }
      out.push_back(ch);
      ++pos_;
    }
    return fail("unterminated string");
  }

  [[nodiscard]] bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double parsed = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, parsed);
    if (ec != std::errc{} || end != text_.data() + pos_) {
      return fail("invalid number");
    }
    out.kind_ = JsonValue::Kind::Number;
    out.number_ = parsed;
    return true;
  }

  [[nodiscard]] bool parse_value(JsonValue& out, int depth) {  // NOLINT(misc-no-recursion)
    if (depth > JsonValue::kMaxDepth) return fail("nesting too deep");
    skip_whitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char ch = text_[pos_];
    switch (ch) {
      case '{': {
        ++pos_;
        out.kind_ = JsonValue::Kind::Object;
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
          if (pos_ >= text_.size() || text_[pos_] != ':') {
            return fail("expected ':' after object key");
          }
          ++pos_;
          JsonValue member;
          if (!parse_value(member, depth + 1)) return false;
          out.members_.emplace_back(std::move(key), std::move(member));
          skip_whitespace();
          if (pos_ >= text_.size()) return fail("unterminated object");
          if (text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (text_[pos_] == '}') {
            ++pos_;
            return true;
          }
          return fail("expected ',' or '}' in object");
        }
      }
      case '[': {
        ++pos_;
        out.kind_ = JsonValue::Kind::Array;
        skip_whitespace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        while (true) {
          JsonValue item;
          if (!parse_value(item, depth + 1)) return false;
          out.items_.push_back(std::move(item));
          skip_whitespace();
          if (pos_ >= text_.size()) return fail("unterminated array");
          if (text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (text_[pos_] == ']') {
            ++pos_;
            return true;
          }
          return fail("expected ',' or ']' in array");
        }
      }
      case '"': {
        out.kind_ = JsonValue::Kind::String;
        return parse_string(out.string_);
      }
      case 't':
        out.kind_ = JsonValue::Kind::Bool;
        out.bool_ = true;
        return consume_literal("true");
      case 'f':
        out.kind_ = JsonValue::Kind::Bool;
        out.bool_ = false;
        return consume_literal("false");
      case 'n':
        out.kind_ = JsonValue::Kind::Null;
        return consume_literal("null");
      default:
        return parse_number(out);
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

std::optional<JsonValue> JsonValue::parse(std::string_view text,
                                          std::string* error) {
  JsonParser parser{text};
  return parser.run(error);
}

}  // namespace cloudrtt::util
