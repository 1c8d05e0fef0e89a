#pragma once
// Structured logging for the simulator pipeline.
//
// Design goals, in order: (1) a disabled statement costs one relaxed atomic
// load and a predictable branch — cheap enough for the measurement hot path;
// (2) records are structured (event name + typed key=value fields); (3) sinks
// are pluggable (stderr text, test capture).
//
//   CLOUDRTT_LOG_INFO("campaign.day", {"day", day}, {"budget_left", left});
//
// The global level comes from the CLOUDRTT_LOG environment variable
// (trace|debug|info|warn|error|off; default warn) and can be overridden at
// runtime (the CLI's --log-level / --quiet flags do this).

#include <atomic>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <ostream>
#include <string_view>

namespace cloudrtt::obs {

enum class Level : int { Trace = 0, Debug, Info, Warn, Error, Off };

[[nodiscard]] std::string_view to_string(Level level);
/// Parse "trace".."off" (case-insensitive); nullopt on anything else.
[[nodiscard]] std::optional<Level> level_from_string(std::string_view text);

namespace detail {
extern std::atomic<int> g_level;  ///< the one word the fast path reads
}

/// The single-branch fast path: every CLOUDRTT_LOG_* statement starts here
/// and goes no further when the level is filtered out.
[[nodiscard]] inline bool log_enabled(Level level) {
  return static_cast<int>(level) >=
         detail::g_level.load(std::memory_order_relaxed);
}

/// One typed key/value pair. Values are captured by view — fields only live
/// for the duration of the emit call.
struct Field {
  enum class Kind : unsigned char { Int, Uint, Float, Bool, Str };

  std::string_view name;
  Kind kind = Kind::Int;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  double d = 0.0;
  bool b = false;
  std::string_view s;

  Field(std::string_view n, bool v) : name(n), kind(Kind::Bool), b(v) {}
  Field(std::string_view n, double v) : name(n), kind(Kind::Float), d(v) {}
  Field(std::string_view n, std::string_view v) : name(n), kind(Kind::Str), s(v) {}
  Field(std::string_view n, const char* v) : name(n), kind(Kind::Str), s(v) {}
  template <std::signed_integral T>
    requires(!std::same_as<T, bool>)
  Field(std::string_view n, T v)
      : name(n), kind(Kind::Int), i(static_cast<std::int64_t>(v)) {}
  template <std::unsigned_integral T>
    requires(!std::same_as<T, bool>)
  Field(std::string_view n, T v)
      : name(n), kind(Kind::Uint), u(static_cast<std::uint64_t>(v)) {}
};

struct LogRecord {
  Level level = Level::Info;
  std::string_view event;
  const Field* fields = nullptr;
  std::size_t field_count = 0;
};

/// Output backend. Implementations must tolerate concurrent emit() callers:
/// the logger serialises writes with an internal mutex.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void write(const LogRecord& record) = 0;
};

/// Human-oriented single-line text: `[info ] campaign.day day=3 tasks=210`.
class TextSink : public Sink {
 public:
  explicit TextSink(std::ostream& out) : out_(&out) {}
  void write(const LogRecord& record) override;

 private:
  std::ostream* out_;
};

class Logger {
 public:
  /// Process-wide logger; starts with a stderr TextSink and the level from
  /// CLOUDRTT_LOG (default warn).
  [[nodiscard]] static Logger& global();

  void set_level(Level level) {
    detail::g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  [[nodiscard]] Level level() const {
    return static_cast<Level>(detail::g_level.load(std::memory_order_relaxed));
  }

  void add_sink(std::unique_ptr<Sink> sink);
  void clear_sinks();

  /// Slow path; call through the CLOUDRTT_LOG_* macros so the fields are
  /// never even constructed when the level is filtered.
  void emit(Level level, std::string_view event,
            std::initializer_list<Field> fields);

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

 private:
  Logger();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cloudrtt::obs

// The fields argument list may contain braced initialisers with commas; the
// preprocessor splits them into multiple macro arguments and __VA_ARGS__
// splices them back together verbatim.
#define CLOUDRTT_LOG(lvl, event, ...)                                         \
  do {                                                                        \
    if (::cloudrtt::obs::log_enabled(lvl)) {                                  \
      ::cloudrtt::obs::Logger::global().emit((lvl), (event), {__VA_ARGS__});  \
    }                                                                         \
  } while (0)

#define CLOUDRTT_LOG_TRACE(event, ...) \
  CLOUDRTT_LOG(::cloudrtt::obs::Level::Trace, event, __VA_ARGS__)
#define CLOUDRTT_LOG_DEBUG(event, ...) \
  CLOUDRTT_LOG(::cloudrtt::obs::Level::Debug, event, __VA_ARGS__)
#define CLOUDRTT_LOG_INFO(event, ...) \
  CLOUDRTT_LOG(::cloudrtt::obs::Level::Info, event, __VA_ARGS__)
#define CLOUDRTT_LOG_WARN(event, ...) \
  CLOUDRTT_LOG(::cloudrtt::obs::Level::Warn, event, __VA_ARGS__)
#define CLOUDRTT_LOG_ERROR(event, ...) \
  CLOUDRTT_LOG(::cloudrtt::obs::Level::Error, event, __VA_ARGS__)
