#pragma once
// Measurement engine: executes TCP/ICMP pings and ICMP traceroutes over the
// simulated forwarding fabric, layering on everything the paper's §3.3/§7
// warn about — last-mile samples, path-wide congestion noise, occasional
// spikes, ICMP deprioritisation by middleboxes, unresponsive routers,
// control-plane rate limiting, and cloud firewalls eating the final echo.

#include "fault/plan.hpp"
#include "measure/records.hpp"
#include "obs/metrics.hpp"
#include "routing/path_builder.hpp"
#include "topology/world.hpp"
#include "util/rng.hpp"

namespace cloudrtt::measure {

/// What the engine counts for one measurement stream, in plain integers:
/// the `engine.*` counters (measurements, and the §3.3/§7 anomalies the
/// simulator injects) and the `engine.ping.rtt_ms` samples. fold() adds
/// them to the registry. Each executor worker tallies the tasks it runs and
/// the executor folds the tallies once per execute call, so no task writes
/// a cache line that another worker writes (hence the alignment); the
/// single-shot entries fold per call.
struct alignas(64) EngineTally {
  std::uint64_t pings = 0;
  std::uint64_t traceroutes = 0;
  std::uint64_t traceroutes_completed = 0;
  std::uint64_t unresponsive_hops = 0;
  std::uint64_t firewall_drops = 0;
  std::uint64_t rate_limited_hops = 0;
  std::uint64_t ecmp_detours = 0;
  std::uint64_t icmp_penalties = 0;
  std::uint64_t spikes = 0;
  std::uint64_t fault_truncations = 0;
  std::uint64_t fault_lost_hops = 0;
  obs::Histogram::Tally ping_rtt_ms;

  void fold() const;
};

/// Caller-owned scratch for one measurement stream. The executor keeps one
/// per worker so every task builds its path into the same hop vector day
/// after day instead of churning the heap; single-shot callers can omit it
/// (a per-call local is used). Holds no RNG, never affects results, and no
/// path built here outlives the task that built it. Aligned to a cache line
/// because the executor's per-worker vector would otherwise pack neighbouring
/// workers' vector headers, which every hop push writes, into one line.
struct alignas(64) MeasurementScratch {
  routing::ForwardingPath path;
  /// Worker-local flat hop arena: traceroute_into appends here and the
  /// executor's merge copies the span into the dataset's hop pool. Cleared
  /// per batch, capacity recycled across batches and days.
  std::vector<HopRecord> hops;
};

/// One scheduled <probe, target> measurement (ping + traceroute together).
/// Fully resolved at schedule time: carries no RNG and touches no shared
/// campaign state, so any worker may run it.
struct MeasurementTask {
  const probes::Probe* probe = nullptr;
  const topology::CloudEndpoint* endpoint = nullptr;
  std::uint32_t day = 0;
  std::uint8_t slot = 0;
  const fault::TraceFaults* trace_faults = nullptr;
};

/// What one task yields: its TCP ping and its classic traceroute, whose hops
/// went to the scratch's hop arena.
struct TaskRecords {
  PingRecord ping;
  TraceCore trace;
};

class Engine {
 public:
  explicit Engine(const topology::World& world)
      : world_(world), builder_(world) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] PingRecord ping(const probes::Probe& probe,
                                const topology::CloudEndpoint& endpoint,
                                Protocol protocol, std::uint32_t day,
                                util::Rng& rng, std::uint8_t slot = 0,
                                MeasurementScratch* scratch = nullptr) const;

  /// A campaign task: the same records and draws as ping(Protocol::Tcp) then
  /// traceroute_into(Classic) on one RNG, with the trace's hops appended to
  /// `scratch.hops` and the counts added to `tally`, which the caller folds.
  /// Each measurement rolls its own interconnect mode; the traceroute
  /// reuses the ping's path when its roll agrees, since a build draws no RNG
  /// and depends on nothing else that changes within a task.
  [[nodiscard]] TaskRecords run_task(const MeasurementTask& task,
                                     util::Rng& rng,
                                     MeasurementScratch& scratch,
                                     EngineTally& tally) const;

  /// Traceroute flavour: Classic sends per-TTL probes whose flow identifiers
  /// vary, so ECMP segments answer from either sibling interface and inflate
  /// hop RTTs (the anomaly Paris traceroute fixes — §2.1 [10], §3.3
  /// caveats). Paris keeps the flow pinned.
  enum class TraceMethod : unsigned char { Classic, Paris };

  /// `faults` (optional) injects episode-level measurement damage: mid-path
  /// truncation (the trace loses connectivity before the DC) and boosted
  /// per-hop loss. Null — the default and the hot path — costs one branch.
  [[nodiscard]] TraceRecord traceroute(
      const probes::Probe& probe, const topology::CloudEndpoint& endpoint,
      std::uint32_t day, util::Rng& rng,
      TraceMethod method = TraceMethod::Classic, std::uint8_t slot = 0,
      const fault::TraceFaults* faults = nullptr,
      MeasurementScratch* scratch = nullptr) const;

  /// Columnar hot path: identical draws and hop bytes to traceroute(), but
  /// the hops append to the caller-owned flat arena `hops_out` (never
  /// cleared here — the executor packs a whole day of traces into one
  /// per-worker arena) and the scalar fields return as a TraceCore.
  [[nodiscard]] TraceCore traceroute_into(
      const probes::Probe& probe, const topology::CloudEndpoint& endpoint,
      std::uint32_t day, util::Rng& rng, std::vector<HopRecord>& hops_out,
      TraceMethod method = TraceMethod::Classic, std::uint8_t slot = 0,
      const fault::TraceFaults* faults = nullptr,
      MeasurementScratch* scratch = nullptr) const;

  /// Inter-datacenter ("horizontal") RTT between two regions — private WAN
  /// when the provider serves both, public carriers otherwise.
  [[nodiscard]] double interdc_rtt(const topology::CloudEndpoint& src,
                                   const topology::CloudEndpoint& dst,
                                   util::Rng& rng) const;

  /// Evening-peak congestion multiplier for a probe at a 4-hour slot; ~1.0
  /// off-peak, strongest where the backhaul is weakest. Public so models and
  /// analyses can reason about the time axis explicitly.
  [[nodiscard]] static double diurnal_factor(const probes::Probe& probe,
                                             std::uint8_t slot);

  [[nodiscard]] const routing::PathBuilder& path_builder() const {
    return builder_;
  }

  /// Per-measurement interconnect-mode roll (pair policy + adherence).
  [[nodiscard]] topology::InterconnectMode roll_mode(
      const probes::Probe& probe, const cloud::RegionInfo& region,
      util::Rng& rng) const;

 private:
  struct PathDraw {
    /// The scratch build; consumed within the measurement, before the
    /// scratch is reused.
    const routing::ForwardingPath& path;
    lastmile::Sample last_mile;
    double congestion = 1.0;  ///< shared multiplicative factor this measurement
    double spike_ms = 0.0;    ///< transient congestion event
  };
  /// One measurement's noise over a built path: last-mile sample,
  /// congestion factor and spike.
  [[nodiscard]] PathDraw draw_path(const probes::Probe& probe,
                                   const routing::ForwardingPath& path,
                                   util::Rng& rng, std::uint8_t slot,
                                   EngineTally& tally) const;
  /// The draws of ping() and traceroute_into() over a built path; the public
  /// entries and run_task share them. Each counts into `tally`.
  [[nodiscard]] PingRecord ping_over(const routing::ForwardingPath& path,
                                     const probes::Probe& probe,
                                     const topology::CloudEndpoint& endpoint,
                                     Protocol protocol, std::uint32_t day,
                                     util::Rng& rng, std::uint8_t slot,
                                     EngineTally& tally) const;
  [[nodiscard]] TraceCore trace_over(const routing::ForwardingPath& path,
                                     const probes::Probe& probe,
                                     const topology::CloudEndpoint& endpoint,
                                     std::uint32_t day, util::Rng& rng,
                                     std::vector<HopRecord>& hops_out,
                                     TraceMethod method, std::uint8_t slot,
                                     const fault::TraceFaults* faults,
                                     EngineTally& tally) const;
  [[nodiscard]] double icmp_penalty_ms(const probes::Probe& probe,
                                       util::Rng& rng,
                                       EngineTally& tally) const;

  const topology::World& world_;
  routing::PathBuilder builder_;
};

}  // namespace cloudrtt::measure
