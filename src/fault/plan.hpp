#pragma once
// Fault-injection subsystem: a deterministic, seed-driven schedule of fault
// episodes over campaign days. The paper's six-month campaign lived through
// exactly these failures — Android probes churning offline mid-slot, the
// platform API rejecting or timing out task submissions, cloud regions
// browning out, and submarine-cable cuts rerouting whole continents — so the
// campaign driver must survive them too.
//
// Everything is off by default: a campaign run without a FaultPlan makes no
// fault-related RNG draws and takes no fault branches beyond one null check,
// so the no-fault hot path is bit-identical to a build without this
// subsystem. With a plan installed, every episode is derived from
// (seed, day) alone, so a checkpointed run resumed at day N replays the
// exact same fault schedule.

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "topology/world.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cloudrtt::fault {

/// Documented fault-intensity presets (the CLI's --fault-profile values).
enum class FaultProfile : unsigned char { None, Mild, Harsh };

[[nodiscard]] constexpr std::string_view to_string(FaultProfile profile) {
  switch (profile) {
    case FaultProfile::None: return "none";
    case FaultProfile::Mild: return "mild";
    case FaultProfile::Harsh: return "harsh";
  }
  return "?";
}

[[nodiscard]] std::optional<FaultProfile> profile_from_string(
    std::string_view text);

/// Per-fault-class intensities. `for_profile` returns the documented presets
/// (see README "Fault injection & chaos testing"); the fields can also be set
/// individually for targeted chaos tests.
struct FaultIntensity {
  /// Multiplier on every probe's availability (probe churn; 1.0 = nominal).
  double churn_factor = 1.0;
  /// P[a selected probe drops offline mid-visit, losing its remaining tasks].
  double mid_visit_drop = 0.0;
  /// Expected number of one-slot platform API outages per day (0..6).
  double api_outages_per_day = 0.0;
  /// P[a task submission fails transiently] outside outages.
  double task_failure_rate = 0.0;
  /// Expected cloud-region endpoint brownouts per day.
  double region_brownouts_per_day = 0.0;
  /// Expected backbone link failures (submarine-cable cuts) per day.
  double backbone_cuts_per_day = 0.0;
  /// P[a traceroute is truncated mid-path] (doubled on cable-cut days).
  double trace_truncate_prob = 0.0;

  [[nodiscard]] static FaultIntensity for_profile(FaultProfile profile);
};

/// Disk-fault intensities for the streaming store (store::FaultyIoEnv).
/// Probabilities are per I/O operation. Unlike the measurement fault classes
/// above, I/O faults shape *durability*, never the dataset bits — salvage +
/// deterministic replay reconstruct the same rows whatever the disk did — so
/// their draws carry no cross-resume determinism contract.
struct IoFaults {
  double append_error_rate = 0.0;   ///< P[an append fails outright (EIO)]
  /// P[an append tears: a prefix lands, then EIO]
  double short_write_rate = 0.0;
  double fsync_failure_rate = 0.0;  ///< P[data lands but fsync reports failure]
  std::uint64_t disk_capacity_bytes = 0;  ///< 0 = unlimited; ENOSPC beyond

  [[nodiscard]] bool any() const {
    return append_error_rate > 0.0 || short_write_rate > 0.0 ||
           fsync_failure_rate > 0.0 || disk_capacity_bytes > 0;
  }
  /// Documented presets behind the CLI's --io-fault-profile values.
  [[nodiscard]] static IoFaults for_profile(FaultProfile profile);
};

/// Capped exponential backoff for failed task submissions. Delays are
/// virtual (simulated) milliseconds: the simulator has no wall clock, but
/// the histogram of produced delays documents the schedule and the cap.
struct RetryPolicy {
  std::size_t max_attempts = 4;   ///< total submission attempts per task
  double base_backoff_ms = 250.0;
  double backoff_cap_ms = 4000.0;

  /// Backoff before retry `attempt` (1-based), with +-25% deterministic
  /// jitter drawn from `rng`.
  [[nodiscard]] double backoff_ms(std::size_t attempt, util::Rng& rng) const;
};

/// Fault hook consumed by measure::Engine::traceroute. Kept tiny so the
/// disabled path is a single pointer null check.
struct TraceFaults {
  double truncate_prob = 0.0;  ///< P[trace loses connectivity mid-path]
  double loss_boost = 0.0;     ///< extra per-hop response-loss probability
};

/// Everything that is wrong with one simulated day.
struct DayFaults {
  double churn_factor = 1.0;
  double mid_visit_drop = 0.0;
  double task_failure_rate = 0.0;
  std::array<bool, 6> api_down{};  ///< platform API outage per 4-hour slot
  std::vector<std::size_t> regions_down;  ///< endpoint indices browned out
  /// Country pairs whose backbone links are severed for the day.
  std::vector<std::pair<std::string_view, std::string_view>> backbone_cuts;
  TraceFaults trace_faults;

  [[nodiscard]] bool api_down_in_slot(std::uint8_t slot) const {
    return api_down[slot % api_down.size()];
  }
  [[nodiscard]] bool region_is_down(std::size_t endpoint_index) const {
    for (const std::size_t idx : regions_down) {
      if (idx == endpoint_index) return true;
    }
    return false;
  }
  /// True when any fault class is active today (campaigns skip the fault
  /// machinery entirely on clean days).
  [[nodiscard]] bool any() const;
};

/// Deterministic per-day fault schedule for one campaign. Construction draws
/// every episode up front from `seed` alone; queries are read-only.
class FaultPlan {
 public:
  FaultPlan(const topology::World& world, std::uint32_t days,
            const FaultIntensity& intensity, std::uint64_t seed);

  /// Profile-based factory; None yields an empty optional (no plan at all).
  [[nodiscard]] static std::optional<FaultPlan> make(
      const topology::World& world, std::uint32_t days, FaultProfile profile,
      std::uint64_t seed);

  [[nodiscard]] const DayFaults& day(std::uint32_t d) const {
    CLOUDRTT_CHECK(d < days_.size(), "fault day ", d, " outside the ",
                   days_.size(), "-day schedule");
    return days_[d];
  }
  [[nodiscard]] std::uint32_t days() const {
    return static_cast<std::uint32_t>(days_.size());
  }
  [[nodiscard]] const RetryPolicy& retry() const { return retry_; }
  [[nodiscard]] const FaultIntensity& intensity() const { return intensity_; }

 private:
  FaultIntensity intensity_;
  RetryPolicy retry_;
  std::vector<DayFaults> days_;
};

}  // namespace cloudrtt::fault
