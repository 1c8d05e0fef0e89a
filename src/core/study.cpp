#include "core/study.hpp"

#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "store/codec.hpp"
#include "store/io_env.hpp"
#include "store/salvage.hpp"
#include "store/shard_writer.hpp"
#include "util/check.hpp"

namespace cloudrtt::core {

Study::Study(StudyConfig config) : config_(config) {
  obs::Span build = obs::span("study.build");
  config_.sc_campaign.threads = config_.threads;
  config_.atlas_campaign.threads = config_.threads;
  topology::WorldConfig world_config;
  world_config.seed = config_.seed;
  world_config.enable_uplink_gateways = config_.enable_uplink_gateways;
  world_config.enable_edge_pops = config_.enable_edge_pops;
  world_ = std::make_unique<topology::World>(world_config);

  probes::FleetConfig sc_config;
  sc_config.platform = probes::Platform::Speedchecker;
  sc_config.target_count = config_.sc_probes;
  sc_config.access_override = config_.sc_access_override;
  sc_config.air_scale = config_.sc_air_scale;
  sc_fleet_ = std::make_unique<probes::ProbeFleet>(*world_, sc_config);
  if (config_.include_atlas) {
    atlas_fleet_ = std::make_unique<probes::ProbeFleet>(
        *world_,
        probes::FleetConfig{probes::Platform::RipeAtlas, config_.atlas_probes});
  }
}

void Study::run() { run(RunControl{}); }

bool Study::run_campaign(std::string_view platform,
                         const measure::Campaign& campaign, util::Rng rng,
                         const fault::FaultPlan* plan,
                         const RunControl& control, measure::Dataset& out) {
  measure::CampaignState start;
  measure::Dataset dataset;

  const bool persist = !control.checkpoint_dir.empty();
  if (control.stream && !persist) {
    throw std::runtime_error{
        "Study::run: RunControl::stream requires checkpoint_dir — a streamed "
        "run drops each batch of rows once it is spilled, so the store is "
        "the only copy of the data"};
  }
  const std::filesystem::path store_dir{control.checkpoint_dir};

  // The store's filesystem seam: plain POSIX, or the fault-injecting
  // decorator when the study is configured to stress its own durability.
  store::IoEnv plain_io;
  std::optional<store::FaultyIoEnv> faulty_io;
  store::IoEnv* io = &plain_io;
  if (config_.io_fault_profile != fault::FaultProfile::None) {
    faulty_io.emplace(fault::IoFaults::for_profile(config_.io_fault_profile),
                      config_.fault_seed ^ util::fnv1a(platform));
    io = &*faulty_io;
  }

  std::unique_ptr<store::ShardWriter> writer;
  if (persist) {
    store::StoreMeta meta;
    meta.platform = std::string{platform};
    meta.seed = config_.seed;
    meta.fault_profile = std::string{to_string(config_.fault_profile)};
    store::OpenResult opened;
    if (control.resume) {
      // One pass over the store: the open refuses a legacy, damaged or
      // foreign-seed manifest before it reads a block, validates and
      // repairs the rest, and yields the shard's byte mark plus the on-disk
      // row count, which is all restore() needs. Only an in-memory resume
      // decodes the blocks it hands over, so a streaming resume's RAM stays
      // that of a batch and a day's spill across kill+resume cycles.
      store::BlockVisitor decode;
      if (!control.stream) {
        dataset.bind(sc_fleet_.get(), atlas_fleet_.get());
        decode = [&](const store::BlockHeader& header,
                     std::string_view payload) {
          return store::parse_block(payload, header, sc_fleet_.get(),
                                    atlas_fleet_.get(), dataset);
        };
      }
      opened = store::open_store(store_dir, platform, *io, /*repair=*/true,
                                 config_.seed, decode);
      if (opened.found && !opened.ok()) {
        // Refuse before any writer exists: a fresh ShardWriter would wipe
        // the platform's artefacts, and they are the user's data.
        throw std::runtime_error{"Study::run: cannot resume '" +
                                 std::string{platform} + "': " + opened.error};
      }
    }
    if (opened.found) {
      start = opened.state;
      writer = std::make_unique<store::ShardWriter>(store_dir, meta, *io,
                                                    /*fresh=*/false);
      writer->restore(opened.shard, opened.durable_rows);
      if (!opened.salvage.clean()) {
        CLOUDRTT_LOG_WARN("study.salvaged", {"platform", platform},
                          {"blocks", opened.salvage.salvaged_blocks},
                          {"rows", opened.salvage.salvaged_rows},
                          {"dropped", opened.salvage.dropped_blocks},
                          {"truncated_bytes", opened.salvage.truncated_bytes});
        // Journal the salvage right away: the repaired shard + a manifest
        // carrying day_tasks_done are the new commit point, so a crash
        // during the resumed run never re-salvages the same tail. Drain so
        // the journal is durable before any resumed day enqueues rows.
        (void)writer->commit(start);
        writer->drain();
      }
      CLOUDRTT_LOG_INFO("study.resume", {"platform", platform},
                        {"next_day", start.next_day},
                        {"day_tasks_done", start.day_tasks_done},
                        {"pings", dataset.pings.size()});
    } else {
      writer = std::make_unique<store::ShardWriter>(store_dir, meta, *io,
                                                    /*fresh=*/true);
    }
  }

  measure::RunHooks hooks;
  hooks.faults = plan;
  bool stopped = false;
  if (writer != nullptr) {
    hooks.day_rows = [&writer](std::uint32_t day, std::size_t day_start_cursor,
                               std::uint32_t first_task,
                               const measure::Dataset& data,
                               std::size_t ping_begin,
                               std::size_t trace_begin) {
      // Failures degrade, never abort: the writer queues the blocks and
      // retries on later days (degrade-don't-die).
      (void)writer->append_day(day, day_start_cursor, first_task, data,
                               ping_begin, trace_begin);
    };
    // Streaming: once append_day has copied a batch's columns into its job,
    // the campaign drops them — the store is the only copy from here on.
    hooks.drop_day_rows = control.stream;
  }
  if (writer != nullptr || control.stop_after_day) {
    hooks.after_day = [&](const measure::CampaignState& state,
                          const measure::Dataset& data) {
      (void)data;
      // commit() is advisory (the worker retires it asynchronously): false
      // means the store was already degraded, so surface the backlog.
      if (writer != nullptr && !writer->commit(state)) {
        CLOUDRTT_LOG_WARN("study.checkpoint_failed", {"platform", platform},
                          {"pending_blocks", writer->pending_blocks()});
      }
      if (control.stop_after_day && state.next_day >= *control.stop_after_day) {
        stopped = true;
        return false;
      }
      return true;
    };
  }
  out = campaign.run(rng, start, hooks, std::move(dataset));
  if (writer != nullptr) {
    // The spill worker ran behind the campaign; wait out whatever tail is
    // left so "run_campaign returned" means "the store is quiescent". The
    // span makes a too-slow spill pipeline visible in --trace-out.
    obs::Span drain_span = obs::span("store.drain");
    writer->drain();
  }
  return !stopped;
}

void Study::run(const RunControl& control) {
  obs::Span run_span = obs::span("study.run");
  streamed_ = control.stream;
  const std::optional<fault::FaultPlan> sc_plan =
      fault::FaultPlan::make(*world_, config_.sc_campaign.days,
                             config_.fault_profile, config_.fault_seed);
  bool complete = true;
  {
    obs::Span phase = obs::span("campaign.speedchecker");
    CLOUDRTT_LOG_INFO("study.campaign.start", {"platform", "speedchecker"},
                      {"probes", sc_fleet_->probes().size()},
                      {"days", config_.sc_campaign.days},
                      {"fault_profile", to_string(config_.fault_profile)});
    const measure::Campaign sc_campaign{*world_, *sc_fleet_,
                                        config_.sc_campaign};
    complete &= run_campaign("speedchecker", sc_campaign,
                             world_->fork_rng("campaign/speedchecker"),
                             sc_plan ? &*sc_plan : nullptr, control, sc_data_);
  }
  // Campaigns are independent: router addressing is pre-materialized at
  // world construction and each platform forks its own RNG stream, so Atlas
  // runs its days even when Speedchecker stopped early at a checkpoint —
  // resuming either campaign later stays bit-identical.
  if (atlas_fleet_) {
    obs::Span phase = obs::span("campaign.atlas");
    CLOUDRTT_LOG_INFO("study.campaign.start", {"platform", "atlas"},
                      {"probes", atlas_fleet_->probes().size()},
                      {"days", config_.atlas_campaign.days});
    // Independent failure history for the second platform: real outages on
    // Speedchecker's scheduler never lined up with Atlas's.
    const std::optional<fault::FaultPlan> atlas_plan =
        fault::FaultPlan::make(*world_, config_.atlas_campaign.days,
                               config_.fault_profile, config_.fault_seed + 1);
    const measure::Campaign atlas_campaign{*world_, *atlas_fleet_,
                                           config_.atlas_campaign};
    complete &= run_campaign("atlas", atlas_campaign,
                             world_->fork_rng("campaign/atlas"),
                             atlas_plan ? &*atlas_plan : nullptr, control,
                             atlas_data_);
  }
  if (!complete) {
    ran_ = false;
    CLOUDRTT_LOG_INFO("study.stopped_early",
                      {"stop_after_day", control.stop_after_day.value_or(0)});
    return;
  }
  {
    obs::Span phase = obs::span("resolver.build");
    resolver_ = analysis::IpToAsn::from_world(*world_);
  }
  ran_ = true;
  CLOUDRTT_LOG_INFO("study.done", {"streamed", streamed_},
                    {"pings", sc_data_.pings.size()},
                    {"traceroutes", sc_data_.traces.size()},
                    {"atlas_pings", atlas_data_.pings.size()});
}

analysis::StudyView Study::view() const {
  CLOUDRTT_CHECK(ran_, "Study::view: call run() first");
  CLOUDRTT_CHECK(!streamed_,
                 "Study::view: a streamed run keeps no rows in memory — "
                 "analyse the store, or rerun without RunControl::stream");
  analysis::StudyView view;
  view.world = world_.get();
  view.sc_fleet = sc_fleet_.get();
  view.sc_data = &sc_data_;
  if (atlas_fleet_) {
    view.atlas_fleet = atlas_fleet_.get();
    view.atlas_data = &atlas_data_;
  }
  view.resolver = &resolver_;
  return view;
}

}  // namespace cloudrtt::core
