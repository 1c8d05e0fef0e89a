#pragma once
// Measurement campaign driver: reimplements the scheduling methodology of
// §3.3 — daily API budget, per-country probe selection from the currently
// connected fleet, cycling through every country with enough probes,
// same-continent targeting plus neighbour-continent targets for Africa and
// South America, and the focused case-study measurements of §6.2/A.4
// (DE->UK, JP->IN, UA->UK, BH->IN).
//
// Each task runs a TCP ping and an ICMP traceroute in parallel, exactly as
// the paper's probes did.
//
// Execution is two-phase per day: a sequential schedule pass owns every
// shared-state decision (budget, cursor, connectivity, fault retries) and
// emits a task list; measure::ParallelExecutor then runs the tasks across
// `threads` workers with per-chunk RNG forking, merging results in schedule
// order so the dataset is bit-identical at any thread count.

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "fault/plan.hpp"
#include "measure/engine.hpp"
#include "measure/records.hpp"
#include "probes/fleet.hpp"
#include "topology/world.hpp"
#include "util/rng.hpp"

namespace cloudrtt::measure {

struct CampaignConfig {
  std::uint32_t days = 10;
  /// Measurement tasks per day (the platform API quota of §3.3). One task is
  /// one <probe, target> pair (ping + traceroute together).
  std::size_t daily_budget = 12000;
  /// Base probes selected per country visit, by the country's continent
  /// (order: AF, AS, EU, NA, OC, SA). Weighted so the dataset composition
  /// matches §3.3 (~50% EU, ~20% AS, ~10% NA samples).
  std::array<std::size_t, 6> visit_probes_by_continent{5, 3, 12, 10, 6, 6};
  /// On top of the base, half of the connected probes join the visit (up to
  /// `visit_probes_cap`): dense deployments like Brazil or Germany dominate
  /// their region's samples the way the real platform's availability-driven
  /// selection did.
  std::size_t visit_probes_cap = 24;
  /// Random same-continent targets beyond the per-provider nearest regions.
  std::size_t extra_targets = 4;
  /// The paper's per-country inclusion threshold: >=100 of 115k probes.
  double paper_country_threshold = 100.0;
  /// Case-study tasks (Speedchecker campaigns only in the paper's setup).
  bool run_case_studies = false;
  std::size_t case_study_probes = 16;
  /// Worker threads for the execute phase; 1 = inline sequential execution.
  /// Any value yields the same dataset bits (see measure/executor.hpp).
  unsigned threads = 1;
};

/// Resumable campaign position: the next day to execute plus the country
/// cycle cursor carried across days. Default-constructed = start of campaign.
/// Together with the (never-advanced) base RNG this is the complete state a
/// checkpoint needs — every day's stream is forked from (rng, day) alone.
struct CampaignState {
  std::uint32_t next_day = 0;
  std::size_t cursor = 0;
  /// Tasks of `next_day` already executed and persisted. Nonzero only when
  /// resuming mid-day from a salvaged streaming store: the schedule phase
  /// replays the whole day deterministically, the execute phase skips the
  /// first `day_tasks_done` tasks, and `cursor` still refers to the *start*
  /// of `next_day` (the day's schedule must be re-derivable).
  std::uint32_t day_tasks_done = 0;
};

/// Optional extension points for a campaign run. All default-inactive: a
/// default-constructed RunHooks reproduces the plain run() bit-for-bit.
struct RunHooks {
  /// Fault schedule; null = clean run (no fault RNG draws at all).
  const fault::FaultPlan* faults = nullptr;
  /// Called once per executor batch (ParallelExecutor::kBatchTasks tasks,
  /// the day's last batch shorter) as soon as the batch merges, in task
  /// order, before the day's after_day: the batch's rows are [ping_begin,
  /// data.pings.size()) and [trace_begin, data.traces.size()).
  /// `day_start_cursor` is the country cursor at the day's start and
  /// `first_task` the day-relative index of the batch's first row: a
  /// multiple of kBatchTasks, or the resume point on a mid-day resume. A day
  /// with nothing to run gets one call with no rows. The streaming store
  /// hooks in here; measure itself never depends on the store layer.
  std::function<void(std::uint32_t day, std::size_t day_start_cursor,
                     std::uint32_t first_task, const Dataset& data,
                     std::size_t ping_begin, std::size_t trace_begin)>
      day_rows;
  /// Called after each completed day with the advanced state and the dataset
  /// so far (checkpointing). Return false to stop before the next day.
  std::function<bool(const CampaignState&, const Dataset&)> after_day;
  /// Streaming mode: drop each batch's rows (and hops) from RAM as soon as
  /// day_rows returns — the store becomes the only copy, and the campaign's
  /// resident rows are one batch whatever the daily volume. after_day and
  /// the Dataset run() returns then hold no rows.
  bool drop_day_rows = false;
};

class Campaign {
 public:
  Campaign(const topology::World& world, const probes::ProbeFleet& fleet,
           CampaignConfig config);

  /// Execute the full campaign; deterministic given `rng`.
  [[nodiscard]] Dataset run(util::Rng rng) const;

  /// Resumable, fault-aware run: starts at `start` (appending to `dataset`,
  /// which a resume path restores from a checkpoint) and consults `hooks`.
  /// `rng` must be the same base RNG as the original run for a resumed
  /// campaign to replay bit-identically.
  [[nodiscard]] Dataset run(util::Rng rng, const CampaignState& start,
                            const RunHooks& hooks,
                            Dataset dataset = Dataset{}) const;

  /// Countries that pass the scaled probe threshold (sorted by code).
  [[nodiscard]] const std::vector<std::string_view>& scheduled_countries() const {
    return countries_;
  }

 private:
  struct CountryPlan {
    std::string_view code;
    std::vector<const probes::Probe*> probes;
    std::vector<const topology::CloudEndpoint*> fixed_targets;   // nearest/provider
    std::vector<const topology::CloudEndpoint*> extra_pool;      // same continent
  };
  struct CaseStudy {
    std::string_view src_country;
    std::vector<const probes::Probe*> probes;
    std::vector<const topology::CloudEndpoint*> targets;  // all DCs in dst country
  };

  void plan_country(const geo::CountryInfo& country,
                    std::vector<const probes::Probe*> country_probes);
  void plan_case_study(std::string_view src, std::string_view dst);

  const topology::World& world_;
  const probes::ProbeFleet& fleet_;
  Engine engine_;
  CampaignConfig config_;
  std::vector<CountryPlan> plans_;
  std::vector<std::string_view> countries_;
  std::vector<CaseStudy> case_studies_;
};

}  // namespace cloudrtt::measure
