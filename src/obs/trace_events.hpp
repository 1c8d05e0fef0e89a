#pragma once
// Chrome-trace event recording: a process-global ring of timestamped events
// exportable as Trace Event Format JSON (the `chrome://tracing` / Perfetto
// "JSON array format" with complete "X" events), plus the sanctioned
// monotonic-clock helpers for code outside src/obs/ (the determinism linter
// bans raw std::chrono everywhere else — wall time may feed telemetry, never
// the dataset).
//
// The recorder is disabled by default and costs one relaxed atomic load per
// would-be event while off. When enabled (CLI `--trace-out=<file>.json`),
// phase spans (obs::Span), the parallel executor's per-worker/per-chunk
// spans, and counter samples are buffered in memory and written at exit:
//
//   obs::TraceRecorder::global().enable();
//   ...instrumented run...
//   std::ofstream out{"trace.json"};
//   obs::TraceRecorder::global().write_json(out);   // load in chrome://tracing
//
// Timestamps are microseconds relative to enable(); thread ids are small
// dense integers assigned on first use per OS thread, with "M"-phase
// thread_name metadata naming the main thread and workers.

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace cloudrtt::obs {

/// Monotonic nanoseconds since an arbitrary epoch (steady clock). The one
/// sanctioned stopwatch source for instrumentation outside src/obs/.
[[nodiscard]] std::uint64_t monotonic_ns();

/// Wall-clock stopwatch over monotonic_ns() for bench drivers.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(monotonic_ns()) {}
  [[nodiscard]] double elapsed_ms() const {
    return static_cast<double>(monotonic_ns() - start_ns_) / 1e6;
  }

 private:
  std::uint64_t start_ns_;
};

class TraceRecorder {
 public:
  /// Up to four numeric args attached to an event ("args" in the JSON).
  struct Arg {
    std::string_view key;  ///< must outlive the call (string literals)
    double value = 0.0;
  };

  [[nodiscard]] static TraceRecorder& global();

  /// Start buffering events; clears any previous buffer and re-bases the
  /// timestamp origin.
  void enable();
  void disable();
  /// One inlined relaxed load — the entire cost of disabled instrumentation.
  [[nodiscard]] bool enabled() const {
    return enabled_flag_.load(std::memory_order_relaxed);
  }

  /// Record one complete ("X") event. `start_ns` is a monotonic_ns() value;
  /// events that began before enable() are clamped to ts 0. `name` and `cat`
  /// are copied. No-op while disabled.
  void record_complete(std::string_view name, std::string_view category,
                       std::uint64_t start_ns, std::uint64_t duration_ns,
                       std::initializer_list<Arg> args = {}) {
    if (enabled()) {
      record_complete_slow(name, category, start_ns, duration_ns, args);
    }
  }

  /// Record one counter ("C") sample at the current time. No-op while
  /// disabled.
  void record_counter(std::string_view name, double value) {
    if (enabled()) record_counter_slow(name, value);
  }

  /// Name the calling thread in the export ("M"-phase thread_name metadata).
  void name_this_thread(std::string_view name);

  /// Buffered event count (metadata excluded).
  [[nodiscard]] std::size_t size() const;

  /// Chrome Trace Event Format: {"traceEvents": [...], "displayTimeUnit":
  /// "ms"} with events sorted by timestamp. Does not clear the buffer.
  void write_json(std::ostream& out) const;

  /// Drop every buffered event (tests).
  void reset();

  /// Small dense id of the calling thread, assigned on first use. Exposed so
  /// executor instrumentation can label per-worker metrics consistently with
  /// the trace export.
  [[nodiscard]] static std::uint32_t current_thread_id();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  TraceRecorder();
  void record_complete_slow(std::string_view name, std::string_view category,
                            std::uint64_t start_ns, std::uint64_t duration_ns,
                            std::initializer_list<Arg> args);
  void record_counter_slow(std::string_view name, double value);

  /// Singleton on/off state. A static member (not part of Impl) so the
  /// disabled check in the inline recording wrappers compiles down to one
  /// relaxed atomic load with no pointer chase.
  static std::atomic<bool> enabled_flag_;
  struct Impl;
  Impl* impl_;  ///< leaked: events may be recorded during static destruction
};

}  // namespace cloudrtt::obs
