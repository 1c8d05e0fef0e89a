#pragma once
// Study: the one-call public API.
//
//   cloudrtt::core::Study study{cloudrtt::core::StudyConfig::quick()};
//   study.run();
//   auto rows = cloudrtt::analysis::fig3_country_latency(study.view());
//
// Construction builds the synthetic Internet and both probe fleets; run()
// executes the Speedchecker campaign (Oct 2020 – Apr 2021 in the paper) and
// the RIPE Atlas campaign (the Corneo et al. dataset), then bootstraps the
// analysis resolver from the world's public data products.

#include <memory>
#include <optional>
#include <string>

#include "analysis/resolve.hpp"
#include "analysis/study_view.hpp"
#include "fault/plan.hpp"
#include "measure/campaign.hpp"
#include "measure/records.hpp"
#include "probes/fleet.hpp"
#include "topology/world.hpp"

namespace cloudrtt::core {

struct StudyConfig {
  std::uint64_t seed = 42;
  std::size_t sc_probes = 6000;     ///< scaled stand-in for the 115k fleet
  std::size_t atlas_probes = 1500;  ///< scaled stand-in for the 8.5k fleet
  bool include_atlas = true;
  /// Worker threads for campaign execution on both platforms (copied into
  /// the campaign configs at construction). The dataset is bit-identical
  /// for any value; 1 = sequential.
  unsigned threads = 1;
  measure::CampaignConfig sc_campaign;
  measure::CampaignConfig atlas_campaign;

  // --- ablation / what-if knobs (see bench/ablation_* and bench/whatif_5g) --
  /// Disable the gateway hairpins of under-served regions.
  bool enable_uplink_gateways = true;
  /// Disable every cloud edge PoP (a world without §2.3's investments).
  bool enable_edge_pops = true;
  /// Force the Speedchecker fleet onto one access technology.
  std::optional<lastmile::AccessTech> sc_access_override;
  /// Scale the wireless radio-leg medians (0.15 ~ optimistic 5G).
  double sc_air_scale = 1.0;

  // --- fault injection (see README "Fault injection & chaos testing") ------
  /// Fault-episode intensity applied to both campaigns; None (default) runs
  /// the campaigns bit-identically to a build without the fault subsystem.
  fault::FaultProfile fault_profile = fault::FaultProfile::None;
  /// Disk-fault intensity for the streaming store's I/O layer (EIO, torn
  /// appends, lying fsyncs — see store::FaultyIoEnv). Independent of
  /// `fault_profile`: I/O faults decide what is durable, never what the
  /// dataset contains, so any value leaves the dataset bits unchanged.
  fault::FaultProfile io_fault_profile = fault::FaultProfile::None;
  /// Seed of the fault schedule, independent of the study seed so the same
  /// world can be stressed with different failure histories.
  std::uint64_t fault_seed = 1337;

  StudyConfig() {
    sc_campaign.days = 10;
    sc_campaign.daily_budget = 15000;
    sc_campaign.run_case_studies = true;
    atlas_campaign.days = 8;
    atlas_campaign.daily_budget = 3500;
    atlas_campaign.run_case_studies = false;
    // Corneo et al. measured from every connected Atlas probe; the >=100
    // per-country rule is a Speedchecker scheduling constraint only.
    atlas_campaign.paper_country_threshold = 1.0;
  }

  /// Small configuration for unit tests and quick-start examples.
  [[nodiscard]] static StudyConfig quick() {
    StudyConfig config;
    config.sc_probes = 1200;
    config.atlas_probes = 400;
    config.sc_campaign.days = 3;
    config.sc_campaign.daily_budget = 2500;
    config.sc_campaign.case_study_probes = 5;
    config.atlas_campaign.days = 3;
    config.atlas_campaign.daily_budget = 900;
    return config;
  }
};

/// How one run() invocation interacts with persistence and early stopping.
struct RunControl {
  /// Directory for per-day checkpoints; empty disables checkpointing.
  /// Checkpoints are written as a format=4 streaming store: each platform's
  /// rows are serialised batch by batch as the day runs, appended to its one
  /// shard file when the day ends, and an atomically-renamed manifest is the
  /// commit point (see store/shard_writer.hpp).
  std::string checkpoint_dir;
  /// Resume from `checkpoint_dir` when a committed checkpoint exists there
  /// (resuming replays the remaining days bit-identically, salvaging any
  /// uncommitted shard tail a crash left behind). Throws std::runtime_error
  /// when the checkpoint is corrupt, from another seed, or not a format=4
  /// store: a legacy format=3 store, a format=1/2 CSV checkpoint, or a
  /// manifest that is empty or names no format is refused before any
  /// writer exists, and left as it is (store::find_store).
  bool resume = false;
  /// Stop each campaign once this many days have completed (campaign days
  /// are counted from day 0, so resume + a larger value continues). The
  /// study is left incomplete; completed() reports false. Campaigns are
  /// independent — router addressing is pre-materialized at world
  /// construction and each platform forks its own RNG stream — so a stopped
  /// Speedchecker campaign no longer blocks Atlas from running its days.
  std::optional<std::uint32_t> stop_after_day;
  /// Stream rows to the store and drop them from memory batch by batch (see
  /// measure::ParallelExecutor::kBatchTasks): RAM holds one batch of rows
  /// and the day's serialised spill (~140 B a task, kept until the disk has
  /// it), not the study and not a day's columns.
  /// Requires `checkpoint_dir` (throws otherwise). The in-memory datasets
  /// and view() are unavailable after a streamed run; the dataset hash comes
  /// from core::streamed_dataset_hash over the store instead, and is
  /// bit-identical to the in-memory hash of a non-streamed run. This is what
  /// makes `--scale paper` (115k probes) fit in a laptop's RAM.
  bool stream = false;
};

class Study {
 public:
  explicit Study(StudyConfig config = {});

  /// Execute both campaigns; idempotent (re-running replaces the datasets).
  void run();

  /// run() with checkpointing / resume / early stop. run() == run({}).
  void run(const RunControl& control);

  /// True once run() has finished every campaign day (an early-stopped run
  /// leaves the study incomplete and its view() unavailable).
  [[nodiscard]] bool completed() const { return ran_; }

  /// True when the last run() streamed rows to the store (RunControl::stream):
  /// the in-memory datasets are empty and view() is unavailable — analyse the
  /// store (or recompute the hash with core::streamed_dataset_hash) instead.
  [[nodiscard]] bool streamed() const { return streamed_; }

  [[nodiscard]] const topology::World& world() const { return *world_; }
  [[nodiscard]] topology::World& world() { return *world_; }
  [[nodiscard]] const probes::ProbeFleet& sc_fleet() const { return *sc_fleet_; }
  [[nodiscard]] const probes::ProbeFleet& atlas_fleet() const { return *atlas_fleet_; }
  [[nodiscard]] const measure::Dataset& sc_dataset() const { return sc_data_; }
  [[nodiscard]] const measure::Dataset& atlas_dataset() const { return atlas_data_; }
  [[nodiscard]] const analysis::IpToAsn& resolver() const { return resolver_; }
  [[nodiscard]] const StudyConfig& config() const { return config_; }

  /// Bundle consumed by every analysis::fig* experiment. Valid after run().
  [[nodiscard]] analysis::StudyView view() const;

 private:
  /// Runs one campaign with fault plan + checkpoint hooks; returns true when
  /// every day completed (false = stopped early by control.stop_after_day).
  bool run_campaign(std::string_view platform, const measure::Campaign& campaign,
                    util::Rng rng, const fault::FaultPlan* plan,
                    const RunControl& control, measure::Dataset& out);

  StudyConfig config_;
  std::unique_ptr<topology::World> world_;
  std::unique_ptr<probes::ProbeFleet> sc_fleet_;
  std::unique_ptr<probes::ProbeFleet> atlas_fleet_;
  measure::Dataset sc_data_;
  measure::Dataset atlas_data_;
  analysis::IpToAsn resolver_;
  bool ran_ = false;
  bool streamed_ = false;
};

}  // namespace cloudrtt::core
