#include "util/cli.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace cloudrtt::util {

void ArgParser::add_option(std::string name, std::string default_value,
                           std::string help_text) {
  options_.push_back(Option{std::move(name), std::move(default_value),
                            std::move(help_text), false, false});
}

void ArgParser::add_flag(std::string name, std::string help_text) {
  options_.push_back(Option{std::move(name), "", std::move(help_text), true, false});
}

void ArgParser::add_positional(std::string name, std::string help_text,
                               std::optional<std::string> default_value) {
  Positional positional;
  positional.name = std::move(name);
  positional.help = std::move(help_text);
  positional.has_default = default_value.has_value();
  positional.value = std::move(default_value);
  positionals_.push_back(std::move(positional));
}

ArgParser::Option* ArgParser::find(std::string_view name) {
  for (Option& option : options_) {
    if (option.name == name) return &option;
  }
  return nullptr;
}

const ArgParser::Option* ArgParser::find(std::string_view name) const {
  for (const Option& option : options_) {
    if (option.name == name) return &option;
  }
  return nullptr;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  std::size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) == 0) {
      std::string_view name = arg.substr(2);
      std::optional<std::string_view> inline_value;
      if (const auto eq = name.find('='); eq != std::string_view::npos) {
        inline_value = name.substr(eq + 1);
        name = name.substr(0, eq);
      }
      Option* option = find(name);
      if (option == nullptr) {
        error_ = "unknown option --" + std::string{name};
        std::fprintf(stderr, "%s\n%s", error_.c_str(), help().c_str());
        return false;
      }
      if (option->is_flag) {
        if (inline_value) {
          error_ = "flag --" + option->name + " takes no value";
          std::fprintf(stderr, "%s\n", error_.c_str());
          return false;
        }
        option->flag_set = true;
      } else if (inline_value) {
        option->value = std::string{*inline_value};
      } else {
        if (i + 1 >= argc) {
          error_ = "option --" + option->name + " needs a value";
          std::fprintf(stderr, "%s\n", error_.c_str());
          return false;
        }
        option->value = argv[++i];
      }
    } else {
      if (next_positional >= positionals_.size()) {
        error_ = "unexpected argument: " + std::string{arg};
        std::fprintf(stderr, "%s\n%s", error_.c_str(), help().c_str());
        return false;
      }
      positionals_[next_positional++].value = std::string{arg};
    }
  }
  for (const Positional& positional : positionals_) {
    if (!positional.value) {
      error_ = "missing required argument <" + positional.name + ">";
      std::fprintf(stderr, "%s\n%s", error_.c_str(), help().c_str());
      return false;
    }
  }
  return true;
}

const std::string& ArgParser::get(std::string_view name) const {
  if (const Option* option = find(name)) return option->value;
  for (const Positional& positional : positionals_) {
    if (positional.name == name && positional.value) return *positional.value;
  }
  throw std::out_of_range{"ArgParser::get: unknown argument " + std::string{name}};
}

double ArgParser::get_double(std::string_view name) const {
  return std::stod(get(name));
}

long ArgParser::get_int(std::string_view name, long min, long max) const {
  const std::string& text = get(name);
  long value = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, failure] = std::from_chars(text.data(), end, value);
  if (failure == std::errc{} && stop == end && value >= min && value <= max) {
    return value;
  }
  std::string expected = "an integer";
  if (min != std::numeric_limits<long>::min() &&
      max != std::numeric_limits<long>::max()) {
    expected +=
        " in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
  } else if (min != std::numeric_limits<long>::min()) {
    expected += " >= " + std::to_string(min);
  } else if (max != std::numeric_limits<long>::max()) {
    expected += " <= " + std::to_string(max);
  }
  throw ArgError{"--" + std::string{name} + ": expected " + expected +
                 ", got '" + text + "'"};
}

bool ArgParser::get_flag(std::string_view name) const {
  const Option* option = find(name);
  if (option == nullptr || !option->is_flag) {
    throw std::out_of_range{"ArgParser::get_flag: unknown flag " +
                            std::string{name}};
  }
  return option->flag_set;
}

std::string ArgParser::help() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\nusage: " << program_;
  for (const Positional& positional : positionals_) {
    out << (positional.has_default ? " [" : " <") << positional.name
        << (positional.has_default ? "]" : ">");
  }
  out << " [options]\n";
  if (!positionals_.empty()) {
    out << "\narguments:\n";
    for (const Positional& positional : positionals_) {
      out << "  " << positional.name << "  " << positional.help;
      if (positional.has_default) out << " (default: " << *positional.value << ")";
      out << "\n";
    }
  }
  out << "\noptions:\n";
  for (const Option& option : options_) {
    out << "  --" << option.name;
    if (!option.is_flag) out << " <value>";
    out << "  " << option.help;
    if (!option.is_flag && !option.value.empty()) {
      out << " (default: " << option.value << ")";
    }
    out << "\n";
  }
  out << "  --help  show this message\n";
  return out.str();
}

}  // namespace cloudrtt::util
