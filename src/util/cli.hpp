#pragma once
// Tiny command-line parser for the tools/ binaries: long options with values
// (--days 6), boolean flags (--no-atlas), positionals, and generated help.
// No dependencies, strict by default (unknown options are errors).

#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cloudrtt::util {

/// An option value that is not what its getter asked for; what() is one line
/// naming the option.
class ArgError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class ArgParser {
 public:
  ArgParser(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  /// Declare an option taking a value, e.g. add_option("days", "6", "...").
  void add_option(std::string name, std::string default_value, std::string help);
  /// Declare a boolean flag (false unless present).
  void add_flag(std::string name, std::string help);
  /// Declare a positional argument (required in declaration order unless a
  /// default is given).
  void add_positional(std::string name, std::string help,
                      std::optional<std::string> default_value = std::nullopt);

  /// Parse argv. Returns false (after printing a message) on error or when
  /// --help was requested.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] const std::string& get(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;
  /// The whole value as a base-10 integer in [min, max]. Throws ArgError
  /// otherwise: "42x", "abc" and out-of-range values are refused, never
  /// truncated or clamped.
  [[nodiscard]] long get_int(std::string_view name,
                             long min = std::numeric_limits<long>::min(),
                             long max = std::numeric_limits<long>::max()) const;
  [[nodiscard]] bool get_flag(std::string_view name) const;

  [[nodiscard]] std::string help() const;
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  struct Option {
    std::string name;
    std::string value;
    std::string help;
    bool is_flag = false;
    bool flag_set = false;
  };
  struct Positional {
    std::string name;
    std::string help;
    std::optional<std::string> value;
    bool has_default = false;
  };

  Option* find(std::string_view name);
  [[nodiscard]] const Option* find(std::string_view name) const;

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
  std::vector<Positional> positionals_;
  std::string error_;
};

}  // namespace cloudrtt::util
