#include "obs/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <vector>

namespace cloudrtt::obs {

namespace detail {
std::atomic<int> g_level{static_cast<int>(Level::Warn)};
}

namespace {

constexpr std::string_view kLevelNames[] = {"trace", "debug", "info",
                                            "warn",  "error", "off"};

[[nodiscard]] std::string_view padded_level(Level level) {
  switch (level) {
    case Level::Trace: return "trace";
    case Level::Debug: return "debug";
    case Level::Info: return "info ";
    case Level::Warn: return "warn ";
    case Level::Error: return "error";
    case Level::Off: return "off  ";
  }
  return "?????";
}

/// %.10g matches util::JsonWriter's number formatting.
void write_number(std::ostream& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  out << buffer;
}

void write_field_value(std::ostream& out, const Field& field) {
  switch (field.kind) {
    case Field::Kind::Int: out << field.i; break;
    case Field::Kind::Uint: out << field.u; break;
    case Field::Kind::Float: write_number(out, field.d); break;
    case Field::Kind::Bool: out << (field.b ? "true" : "false"); break;
    case Field::Kind::Str: out << field.s; break;
  }
}

}  // namespace

std::string_view to_string(Level level) {
  const auto index = static_cast<std::size_t>(level);
  if (index >= std::size(kLevelNames)) return "?";
  return kLevelNames[index];
}

std::optional<Level> level_from_string(std::string_view text) {
  std::string lower;
  lower.reserve(text.size());
  for (const char ch : text) {
    lower.push_back(ch >= 'A' && ch <= 'Z' ? static_cast<char>(ch - 'A' + 'a')
                                           : ch);
  }
  for (std::size_t i = 0; i < std::size(kLevelNames); ++i) {
    if (lower == kLevelNames[i]) return static_cast<Level>(i);
  }
  return std::nullopt;
}

void TextSink::write(const LogRecord& record) {
  std::ostream& out = *out_;
  out << '[' << padded_level(record.level) << "] " << record.event;
  for (std::size_t i = 0; i < record.field_count; ++i) {
    const Field& field = record.fields[i];
    out << ' ' << field.name << '=';
    write_field_value(out, field);
  }
  out << '\n';
}

struct Logger::Impl {
  std::mutex mutex;
  std::vector<std::unique_ptr<Sink>> sinks;
};

Logger::Logger() : impl_(std::make_unique<Impl>()) {
  impl_->sinks.push_back(std::make_unique<TextSink>(std::cerr));
  if (const char* env = std::getenv("CLOUDRTT_LOG")) {
    if (const auto level = level_from_string(env)) set_level(*level);
  }
}

Logger& Logger::global() {
  static Logger logger;
  return logger;
}

void Logger::add_sink(std::unique_ptr<Sink> sink) {
  const std::scoped_lock lock{impl_->mutex};
  impl_->sinks.push_back(std::move(sink));
}

void Logger::clear_sinks() {
  const std::scoped_lock lock{impl_->mutex};
  impl_->sinks.clear();
}

void Logger::emit(Level level, std::string_view event,
                  std::initializer_list<Field> fields) {
  LogRecord record;
  record.level = level;
  record.event = event;
  record.fields = fields.begin();
  record.field_count = fields.size();
  const std::scoped_lock lock{impl_->mutex};
  for (const std::unique_ptr<Sink>& sink : impl_->sinks) sink->write(record);
}

}  // namespace cloudrtt::obs
