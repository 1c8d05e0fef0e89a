// e2e_bench — one run of one e2ebench workload, in a fresh process.
//
//   e2e_bench --workload paper_stream --seed 42 --work DIR [--mode run]
//
// Modes:
//   run     the user's path, tracing off: core::Study construction,
//           Study::run(RunControl), the dataset hash and, where the workload
//           writes them, the CSV export and report.json — the entry points a
//           `cloudrtt` call uses, in the same order.
//   setup   only the workload's Study construction(s), then exit.
//   traced  the same pipeline assembled from each layer's public calls with
//           a span around every call and obs::TraceRecorder on. Per-layer
//           numbers come from those spans, the program's phase tree and its
//           metrics registry; the spans and the executor's events are
//           written to <work>/trace.json.
//
// Prints one JSON object on stdout (run.py collects and checks them) and
// exits non-zero when the run fails.

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/resolve.hpp"
#include "analysis/study_view.hpp"
#include "core/export.hpp"
#include "core/report.hpp"
#include "core/scale.hpp"
#include "core/study.hpp"
#include "fault/plan.hpp"
#include "measure/campaign.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "obs/trace.hpp"
#include "obs/trace_events.hpp"
#include "probes/fleet.hpp"
#include "store/io_env.hpp"
#include "store/salvage.hpp"
#include "store/shard_writer.hpp"
#include "topology/world.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace cloudrtt;
namespace fs = std::filesystem;

constexpr double kMiB = 1024.0 * 1024.0;
/// faulted_resume: campaign days completed before the stop.
constexpr std::uint32_t kStopAfterDay = 5;
constexpr std::string_view kPlatforms[] = {"speedchecker", "atlas"};

/// The cloudrtt call each workload stands for (see README.md beside this
/// file for why each was chosen).
struct Workload {
  std::string_view name;
  std::string_view scale;
  unsigned threads = 1;
  bool store = false;   ///< the run writes a checkpoint store
  bool stream = false;  ///< rows leave RAM once spilled; hash from the store
  bool report = false;  ///< CSV export plus report.json with every exhibit
  bool resume = false;  ///< harsh + mild-disk faults, stop, fresh-Study resume
};

constexpr Workload kWorkloads[] = {
    {"paper_stream", "paper", 3, true, true, false, false},
    {"default_report", "default", 1, false, false, true, false},
    {"faulted_resume", "default", 2, true, false, false, true},
};

struct Options {
  const Workload* workload = nullptr;
  std::string mode;
  core::StudyConfig config;
  fs::path work;  ///< store/, out/ and the traced run's trace.json
  std::uint64_t start_ns = 0;  ///< process launch (run.py) or main() entry
};

[[nodiscard]] double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::monotonic_ns() - start_ns) / 1e9;
}

[[nodiscard]] std::uint64_t counter(std::string_view name) {
  return obs::Registry::global().counter(name).value();
}

[[nodiscard]] double gauge(std::string_view name) {
  return obs::Registry::global().gauge(name).value();
}

[[nodiscard]] double phase_s(std::string_view name) {
  return obs::SpanTracker::global().total_ms(name) / 1e3;
}

void require(bool condition, const std::string& message) {
  if (!condition) throw std::runtime_error{message};
}

/// What the program built from the seed: exactly what Study's constructor
/// and run() derive from a StudyConfig.
[[nodiscard]] topology::WorldConfig world_config(const core::StudyConfig& c) {
  topology::WorldConfig world;
  world.seed = c.seed;
  world.enable_uplink_gateways = c.enable_uplink_gateways;
  world.enable_edge_pops = c.enable_edge_pops;
  return world;
}

[[nodiscard]] probes::FleetConfig sc_fleet_config(const core::StudyConfig& c) {
  probes::FleetConfig fleet{probes::Platform::Speedchecker, c.sc_probes};
  fleet.access_override = c.sc_access_override;
  fleet.air_scale = c.sc_air_scale;
  return fleet;
}

[[nodiscard]] measure::CampaignConfig campaign_config(
    const core::StudyConfig& c, std::string_view platform) {
  measure::CampaignConfig campaign =
      platform == "speedchecker" ? c.sc_campaign : c.atlas_campaign;
  campaign.threads = c.threads;
  return campaign;
}

// --- spans -----------------------------------------------------------------

/// Spans recorded around each call into a layer. A span is named
/// "<layer>.<call>", where the layer is the src/ module. Disabled Spans
/// record nothing, so the untraced path shares the same code.
class Spans {
 public:
  struct Record {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
    bool derived = false;  ///< split out of a Study call via the phase tree
  };

  class Scope {
   public:
    Scope(Spans* spans, std::string_view name) : spans_(spans) {
      if (spans_ != nullptr) index_ = spans_->open(name);
    }
    ~Scope() {
      if (spans_ != nullptr) spans_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int index() const { return index_; }

   private:
    Spans* spans_;
    int index_ = -1;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] Scope scope(std::string_view name) {
    return Scope{enabled_ ? this : nullptr, name};
  }

  /// Attribute `seconds` of an enclosing Study span to a layer call that
  /// cannot be wrapped from outside src/.
  void add_derived(int parent, std::string_view name, double seconds) {
    if (!enabled_ || parent < 0) return;
    const auto parent_index = static_cast<std::size_t>(parent);
    const std::uint64_t start = records_[parent_index].start_ns;
    const auto length = static_cast<std::uint64_t>(std::max(0.0, seconds) * 1e9);
    records_.push_back(Record{std::string{name}, start, start + length, parent,
                              true});
  }

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Seconds since the (still open) span `index` started.
  [[nodiscard]] double open_s(int index) const {
    return seconds_since(records_[static_cast<std::size_t>(index)].start_ns);
  }

  /// Summed span time of every span with this name.
  [[nodiscard]] double total_s(std::string_view name) const {
    double total = 0.0;
    for (const Record& record : records_) {
      if (record.name == name) total += length_s(record);
    }
    return total;
  }

  /// Span time minus the time its child spans cover.
  [[nodiscard]] std::vector<double> self_s() const {
    std::vector<double> self(records_.size());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      self[i] += length_s(records_[i]);
      if (records_[i].parent >= 0) {
        self[static_cast<std::size_t>(records_[i].parent)] -=
            length_s(records_[i]);
      }
    }
    return self;
  }

  [[nodiscard]] double self_total_s(std::string_view name) const {
    const std::vector<double> self = self_s();
    double total = 0.0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (records_[i].name == name) total += self[i];
    }
    return total;
  }

  /// Mirror every span into the Chrome trace, with its id, parent and run.
  void export_to(obs::TraceRecorder& recorder, std::uint64_t run_id) const {
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& record = records_[i];
      recorder.record_complete(
          record.name, record.derived ? "layer.derived" : "layer",
          record.start_ns, record.end_ns - record.start_ns,
          {{"span", static_cast<double>(i)},
           {"parent", static_cast<double>(record.parent)},
           {"run", static_cast<double>(run_id)}});
    }
  }

 private:
  [[nodiscard]] static double length_s(const Record& record) {
    return static_cast<double>(record.end_ns - record.start_ns) / 1e9;
  }

  int open(std::string_view name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    records_.push_back(Record{std::string{name}, obs::monotonic_ns(), 0,
                              parent, false});
    stack_.push_back(static_cast<int>(records_.size() - 1));
    return stack_.back();
  }
  void close(int index) {
    records_[static_cast<std::size_t>(index)].end_ns = obs::monotonic_ns();
    stack_.pop_back();
  }

  bool enabled_;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

// --- shared pipeline steps ---------------------------------------------------

struct Hashes {
  std::uint64_t sc = 0;
  std::uint64_t atlas = 0;
  std::uint64_t rows = 0;  ///< task rows hashed (ping + traceroute pairs)
};

[[nodiscard]] Hashes streamed_hashes(Spans& spans, const fs::path& store_dir,
                                     const probes::ProbeFleet& sc,
                                     const probes::ProbeFleet& atlas) {
  store::IoEnv io;
  Hashes hashes;
  for (const std::string_view platform : kPlatforms) {
    const auto span = spans.scope("core.streamed_dataset_hash");
    const core::StreamedHashResult result =
        core::streamed_dataset_hash(store_dir, platform, io, &sc, &atlas);
    require(result.ok(), "streamed hash of " + std::string{platform} +
                             " failed: " + result.error);
    (platform == "atlas" ? hashes.atlas : hashes.sc) = result.hash;
    hashes.rows += result.rows;
  }
  return hashes;
}

[[nodiscard]] Hashes memory_hashes(Spans& spans, const measure::Dataset& sc,
                                   const measure::Dataset& atlas) {
  Hashes hashes;
  {
    const auto span = spans.scope("core.dataset_hash");
    hashes.sc = core::dataset_hash(sc);
  }
  {
    const auto span = spans.scope("core.dataset_hash");
    hashes.atlas = core::dataset_hash(atlas);
  }
  hashes.rows = sc.pings.size() + atlas.pings.size();
  return hashes;
}

/// pings.csv, traceroutes.csv and report.json, as `cloudrtt study` writes
/// them. Each file is closed (flushed) before its span ends.
void write_artefacts(Spans& spans, const fs::path& out_dir,
                     const analysis::StudyView& view) {
  fs::create_directories(out_dir);
  {
    const auto span = spans.scope("core.export_pings_csv");
    std::ofstream pings{out_dir / "pings.csv"};
    core::export_pings_csv(pings, *view.sc_data);
  }
  {
    const auto span = spans.scope("core.export_traces_csv");
    std::ofstream traces{out_dir / "traceroutes.csv"};
    core::export_traces_csv(traces, *view.sc_data);
  }
  const auto span = spans.scope("core.write_full_report");
  std::ofstream report{out_dir / "report.json"};
  core::write_full_report(report, view);
  report.close();
  require(!report.fail(), "cannot write " + (out_dir / "report.json").string());
}

[[nodiscard]] std::string file_hash(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  require(in.good(), "cannot read " + path.string());
  const std::string bytes{std::istreambuf_iterator<char>{in},
                          std::istreambuf_iterator<char>{}};
  return core::format_dataset_hash(util::fnv1a(bytes));
}

/// store::fsck over both platforms; the first unhealthy report, or "".
[[nodiscard]] std::string fsck_store(const fs::path& store_dir) {
  store::IoEnv io;
  for (const std::string_view platform : kPlatforms) {
    const store::FsckReport report = store::fsck(store_dir, platform, io);
    if (!report.healthy()) return report.render(platform);
  }
  return {};
}

/// Everything one process reports back to run.py.
struct Result {
  double run_s = 0.0;
  double setup_s = 0.0;  ///< summed over the run's Study constructions
  double sim_s = 0.0;    ///< summed over the run's Study::run calls
  std::uint64_t tasks = 0;
  double peak_rss_mib = 0.0;
  Hashes hashes;
  std::string report_hash;
  std::string fsck_error;
  std::vector<std::pair<std::string, double>> layers;
};

/// Store health, report hash — checked after the run's last artefact, so
/// neither counts in run_s.
void check_outputs(const Options& opt, Result& result) {
  if (opt.workload->store) result.fsck_error = fsck_store(opt.work / "store");
  if (opt.workload->report) {
    result.report_hash = file_hash(opt.work / "out" / "report.json");
  }
}

// --- run: the user's path ----------------------------------------------------

[[nodiscard]] Result run_user_path(const Options& opt) {
  const Workload& w = *opt.workload;
  Spans off{false};
  Result result;
  core::RunControl control;
  if (w.store) control.checkpoint_dir = (opt.work / "store").string();
  control.stream = w.stream;
  const std::uint64_t delivered_before =
      counter("campaign.tasks_delivered_total");

  if (w.resume) {
    // The interrupted first attempt.
    const obs::Stopwatch build;
    core::Study first{opt.config};
    result.setup_s += build.elapsed_ms() / 1e3;
    core::RunControl stop = control;
    stop.stop_after_day = kStopAfterDay;
    const obs::Stopwatch running;
    first.run(stop);
    result.sim_s += running.elapsed_ms() / 1e3;
    require(!first.completed(), "stop_after_day did not stop the study");
    control.resume = true;
  }

  const obs::Stopwatch build;
  core::Study study{opt.config};
  result.setup_s += build.elapsed_ms() / 1e3;
  const obs::Stopwatch running;
  study.run(control);
  result.sim_s += running.elapsed_ms() / 1e3;
  require(study.completed(), "study did not complete");
  result.tasks = counter("campaign.tasks_delivered_total") - delivered_before;

  result.hashes = w.stream ? streamed_hashes(off, opt.work / "store",
                                             study.sc_fleet(),
                                             study.atlas_fleet())
                           : memory_hashes(off, study.sc_dataset(),
                                           study.atlas_dataset());
  if (w.report) write_artefacts(off, opt.work / "out", study.view());
  result.run_s = seconds_since(opt.start_ns);
  result.peak_rss_mib = static_cast<double>(obs::peak_rss_bytes()) / kMiB;
  check_outputs(opt, result);
  return result;
}

[[nodiscard]] Result run_setup_only(const Options& opt) {
  Result result;
  for (int built = 0; built < (opt.workload->resume ? 2 : 1); ++built) {
    const obs::Stopwatch build;
    const core::Study study{opt.config};
    result.setup_s += build.elapsed_ms() / 1e3;
  }
  result.run_s = seconds_since(opt.start_ns);
  return result;
}

// --- traced: the pipeline assembled from layer calls --------------------------

/// What the traced run measures besides its spans: registry values sampled
/// at every day hook or around the report, and the layer accounting.
struct TraceSamples {
  std::vector<double> sc_day_s;  ///< Speedchecker day wall times, in order
  double pending_bytes_max = 0.0;
  double cache_entries_max = 0.0;
  double cache_arena_bytes_max = 0.0;
  double resolve_lookups = 0.0;  ///< during write_full_report
  double export_bytes = 0.0;     ///< pings.csv + traceroutes.csv
  double accounted_s = 0.0;      ///< layer self time inside the run window
};

/// One campaign driven as Study::run_campaign drives it (without resume):
/// Campaign, the store's I/O seam, a ShardWriter bound through RunHooks,
/// Campaign::run, then drain.
[[nodiscard]] measure::Dataset traced_campaign(
    Spans& spans, TraceSamples& samples, const Options& opt,
    std::string_view platform, const topology::World& world,
    const probes::ProbeFleet& fleet, const fault::FaultPlan* plan,
    std::optional<std::uint32_t> stop_after_day) {
  const core::StudyConfig& config = opt.config;
  const bool is_sc = platform == "speedchecker";
  std::optional<measure::Campaign> campaign;
  {
    const auto span = spans.scope("measure.Campaign");
    campaign.emplace(world, fleet, campaign_config(config, platform));
  }

  store::IoEnv plain_io;
  std::optional<store::FaultyIoEnv> faulty_io;
  store::IoEnv* io = &plain_io;
  if (config.io_fault_profile != fault::FaultProfile::None) {
    faulty_io.emplace(fault::IoFaults::for_profile(config.io_fault_profile),
                      config.fault_seed ^ util::fnv1a(platform));
    io = &*faulty_io;
  }
  std::unique_ptr<store::ShardWriter> writer;
  if (opt.workload->store) {
    store::StoreMeta meta;
    meta.platform = std::string{platform};
    meta.seed = config.seed;
    meta.fault_profile = std::string{fault::to_string(config.fault_profile)};
    const auto span = spans.scope("store.ShardWriter");
    writer = std::make_unique<store::ShardWriter>(
        opt.work / "store", meta, std::max(1u, config.threads), *io,
        /*fresh=*/true);
  }

  measure::RunHooks hooks;
  hooks.faults = plan;
  if (writer != nullptr) {
    hooks.day_rows = [&](std::uint32_t day, std::size_t cursor,
                         std::uint32_t first_task, const measure::Dataset& data,
                         std::size_t ping_begin, std::size_t trace_begin) {
      const auto span = spans.scope("store.ShardWriter::append_day");
      (void)writer->append_day(day, cursor, first_task, data, ping_begin,
                               trace_begin);
    };
    hooks.drop_day_rows = opt.workload->stream;
  }
  std::uint64_t day_start_ns = 0;
  hooks.after_day = [&](const measure::CampaignState& state,
                        const measure::Dataset&) {
    if (writer != nullptr) {
      const auto span = spans.scope("store.ShardWriter::commit");
      (void)writer->commit(state);
    }
    samples.pending_bytes_max =
        std::max(samples.pending_bytes_max, gauge("store.pending_bytes"));
    if (is_sc) {
      samples.cache_entries_max = std::max(
          samples.cache_entries_max, gauge("routing.path_cache.entries"));
      samples.cache_arena_bytes_max =
          std::max(samples.cache_arena_bytes_max,
                   gauge("routing.path_cache.arena_bytes"));
      const std::uint64_t now = obs::monotonic_ns();
      samples.sc_day_s.push_back(static_cast<double>(now - day_start_ns) / 1e9);
      day_start_ns = now;
    }
    return !(stop_after_day && state.next_day >= *stop_after_day);
  };

  measure::Dataset data;
  {
    const auto span = spans.scope("measure.Campaign::run");
    day_start_ns = obs::monotonic_ns();
    data = campaign->run(world.fork_rng("campaign/" + std::string{platform}),
                         measure::CampaignState{}, hooks);
  }
  if (writer != nullptr) {
    const auto span = spans.scope("store.ShardWriter::drain");
    writer->drain();
    writer.reset();
  }
  const auto span = spans.scope("measure.~Campaign");
  campaign.reset();
  return data;
}

/// World, both fleets, both campaigns (fault plans made as Study::run makes
/// them), in the order Study's constructor and run() call them. Returns the
/// in-memory datasets; the store (if any) is drained.
struct Assembled {
  std::unique_ptr<topology::World> world;
  std::unique_ptr<probes::ProbeFleet> sc_fleet;
  std::unique_ptr<probes::ProbeFleet> atlas_fleet;
  measure::Dataset sc_data;
  measure::Dataset atlas_data;

  [[nodiscard]] analysis::StudyView view(const analysis::IpToAsn& resolver) const {
    return analysis::StudyView{world.get(), sc_fleet.get(), &sc_data,
                               atlas_fleet.get(), &atlas_data, &resolver};
  }
};

[[nodiscard]] Assembled assemble_study(Spans& spans, TraceSamples& samples,
                                       const Options& opt,
                                       std::optional<std::uint32_t> stop) {
  const core::StudyConfig& config = opt.config;
  Assembled study;
  {
    const auto span = spans.scope("topology.World");
    study.world = std::make_unique<topology::World>(world_config(config));
  }
  {
    const auto span = spans.scope("probes.ProbeFleet");
    study.sc_fleet = std::make_unique<probes::ProbeFleet>(
        *study.world, sc_fleet_config(config));
  }
  {
    const auto span = spans.scope("probes.ProbeFleet");
    study.atlas_fleet = std::make_unique<probes::ProbeFleet>(
        *study.world,
        probes::FleetConfig{probes::Platform::RipeAtlas, config.atlas_probes});
  }
  const auto make_plan = [&](std::uint32_t days, std::uint64_t fault_seed) {
    const auto span = spans.scope("fault.FaultPlan::make");
    return fault::FaultPlan::make(*study.world, days, config.fault_profile,
                                  fault_seed);
  };
  const std::optional<fault::FaultPlan> sc_plan =
      make_plan(config.sc_campaign.days, config.fault_seed);
  study.sc_data = traced_campaign(spans, samples, opt, "speedchecker",
                                  *study.world, *study.sc_fleet,
                                  sc_plan ? &*sc_plan : nullptr, stop);
  const std::optional<fault::FaultPlan> atlas_plan =
      make_plan(config.atlas_campaign.days, config.fault_seed + 1);
  study.atlas_data = traced_campaign(spans, samples, opt, "atlas",
                                     *study.world, *study.atlas_fleet,
                                     atlas_plan ? &*atlas_plan : nullptr, stop);
  return study;
}

/// The resume is reachable only through core::Study: time the constructor
/// and run(), and split run() with the phase tree. The fleets,
/// FaultPlan::make and the Campaign constructors have no phase; they cost
/// what they cost in the assembled half (same world, same configuration).
/// The world is the rest of the constructor (its phase misses the
/// backbone, built in World's initializer list). What remains of run() is
/// the store's open_store (binding the committed rows) and ShardWriter
/// restore.
[[nodiscard]] std::unique_ptr<core::Study> traced_resume(Spans& spans,
                                                        const Options& opt) {
  const double fleets = spans.total_s("probes.ProbeFleet");
  const double plans = spans.total_s("fault.FaultPlan::make");
  const double campaign_ctors = spans.total_s("measure.Campaign");
  std::unique_ptr<core::Study> study;
  {
    const auto span = spans.scope("core.Study");
    study = std::make_unique<core::Study>(opt.config);
    spans.add_derived(span.index(), "probes.ProbeFleet", fleets);
    spans.add_derived(span.index(), "topology.World",
                      spans.open_s(span.index()) - fleets);
  }
  const double campaign_before = phase_s("measure.campaign.run");
  const double drain_before = phase_s("store.drain");
  const double resolver_before = phase_s("resolver.build");
  const auto span = spans.scope("core.Study::run");
  core::RunControl control;
  control.checkpoint_dir = (opt.work / "store").string();
  control.resume = true;
  study->run(control);
  require(study->completed(), "resumed study did not complete");
  const double campaign = phase_s("measure.campaign.run") - campaign_before;
  const double drain = phase_s("store.drain") - drain_before;
  const double resolver = phase_s("resolver.build") - resolver_before;
  spans.add_derived(span.index(), "measure.Campaign::run", campaign);
  spans.add_derived(span.index(), "store.ShardWriter::drain", drain);
  spans.add_derived(span.index(), "analysis.IpToAsn::from_world", resolver);
  spans.add_derived(span.index(), "fault.FaultPlan::make", plans);
  spans.add_derived(span.index(), "measure.Campaign", campaign_ctors);
  spans.add_derived(span.index(), "store.open_store",
                    spans.open_s(span.index()) - campaign - drain - resolver -
                        plans - campaign_ctors);
  return study;
}

/// The paper's exhibits, grouped by the analysis source file that holds
/// them; each is timed on its own after the run (the report above already
/// produced report.json).
struct Exhibit {
  std::string_view group;
  std::string_view name;
  std::function<std::size_t(const analysis::StudyView&)> run;
};

[[nodiscard]] std::vector<Exhibit> exhibits() {
  using analysis::StudyView;
  const auto case_study = [](std::string_view src, std::string_view dst) {
    return [src, dst](const StudyView& v) {
      return analysis::peering_case_study(v, src, dst).matrix.size();
    };
  };
  return {
      {"latency", "fig3_country_latency",
       [](const StudyView& v) { return analysis::fig3_country_latency(v).size(); }},
      {"latency", "fig4_continent_rtt",
       [](const StudyView& v) { return analysis::fig4_continent_rtt(v).size(); }},
      {"latency", "fig5_platform_diff",
       [](const StudyView& v) { return analysis::fig5_platform_diff(v).size(); }},
      {"latency", "fig16_city_asn_diff",
       [](const StudyView& v) { return analysis::fig16_city_asn_diff(v).size(); }},
      {"latency", "fig6_intercontinental_af",
       [](const StudyView& v) {
         return analysis::fig6_intercontinental(v, geo::Continent::Africa).size();
       }},
      {"latency", "fig6_intercontinental_sa",
       [](const StudyView& v) {
         return analysis::fig6_intercontinental(v, geo::Continent::SouthAmerica)
             .size();
       }},
      {"latency", "fig15_protocols",
       [](const StudyView& v) { return analysis::fig15_protocols(v).size(); }},
      {"lastmile", "lastmile_stats",
       [](const StudyView& v) {
         return analysis::lastmile_stats(v, false).share(
             analysis::kLastMileCategories[0], analysis::kGlobalIndex).size();
       }},
      {"lastmile", "lastmile_stats_nearest",
       [](const StudyView& v) {
         return analysis::lastmile_stats(v, true).share(
             analysis::kLastMileCategories[0], analysis::kGlobalIndex).size();
       }},
      {"lastmile", "fig8_cv_by_continent",
       [](const StudyView& v) { return analysis::fig8_cv_by_continent(v).size(); }},
      {"lastmile", "fig9_cv_by_country",
       [](const StudyView& v) { return analysis::fig9_cv_by_country(v).size(); }},
      {"peering", "fig10_interconnect_share",
       [](const StudyView& v) { return analysis::fig10_interconnect_share(v).size(); }},
      {"peering", "fig11_pervasiveness",
       [](const StudyView& v) { return analysis::fig11_pervasiveness(v).size(); }},
      {"peering", "peering_case_study_de_gb", case_study("DE", "GB")},
      {"peering", "peering_case_study_jp_in", case_study("JP", "IN")},
      {"peering", "peering_case_study_ua_gb", case_study("UA", "GB")},
      {"peering", "peering_case_study_bh_in", case_study("BH", "IN")},
      {"sec33", "sec33_stats",
       [](const StudyView& v) { return analysis::sec33_stats(v).ping_count; }},
  };
}

/// The per-layer metrics of BENCHMARK.json, from the traced run's spans, its
/// samples and the registry. A layer the workload does not use reads 0.
[[nodiscard]] std::vector<std::pair<std::string, double>> layer_metrics(
    const Spans& spans, const TraceSamples& samples, const Result& result) {
  const auto count = [](std::string_view name) {
    return static_cast<double>(counter(name));
  };
  const double tasks = static_cast<double>(result.tasks);
  const auto per_task = [tasks](double value) {
    return tasks > 0 ? value / tasks : 0.0;
  };
  const double hits = count("routing.path_cache.hits");
  const double misses = count("routing.path_cache.misses");
  const double bypasses = count("routing.path_cache.bypasses");
  const double lookups = hits + misses + bypasses;
  const double scheduled = count("campaign.tasks_total");
  const double busy_s = count("measure.worker_busy_ms_total") / 1e3;
  const double campaign_s = spans.self_total_s("measure.Campaign::run");
  const double hash_s = spans.total_s("core.dataset_hash") +
                        spans.total_s("core.streamed_dataset_hash");
  const auto exhibits_s = [&](std::string_view group) {
    double total = 0.0;
    for (const Exhibit& exhibit : exhibits()) {
      if (exhibit.group == group) {
        total += spans.total_s("analysis." + std::string{exhibit.name});
      }
    }
    return total;
  };
  const std::vector<double>& days = samples.sc_day_s;
  const obs::Histogram& chunks =
      obs::Registry::global().histogram("measure.chunk_ms");
  return {
      {"topology.world_build_s", spans.total_s("topology.World")},
      {"probes.fleet_build_s", spans.total_s("probes.ProbeFleet")},
      {"fault.plan_build_s", spans.total_s("fault.FaultPlan::make")},
      {"fault.retries", count("campaign.fault.retries_total")},
      {"fault.delivered_ratio", scheduled > 0 ? tasks / scheduled : 0.0},
      {"measure.campaign_s", campaign_s},
      {"measure.ns_per_task", per_task(campaign_s * 1e9)},
      {"measure.first_day_s", days.empty() ? 0.0 : days.front()},
      {"measure.warm_day_p50_s",
       days.size() < 2 ? 0.0
                       : util::median(std::vector<double>(days.begin() + 1,
                                                          days.end()))},
      {"measure.schedule_s", phase_s("schedule")},
      {"measure.merge_s", phase_s("merge")},
      {"measure.worker_busy_s", busy_s},
      {"measure.busy_ns_per_task", per_task(busy_s * 1e9)},
      {"measure.chunk_p50_ms", chunks.quantile(0.5)},
      {"measure.chunk_p99_ms", chunks.quantile(0.99)},
      {"measure.staging_high_water_mib",
       gauge("measure.staging_arena_high_water_bytes") / kMiB},
      {"measure.tasks", tasks},
      {"routing.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0},
      {"routing.cache_misses", misses},
      {"routing.cache_bypasses", bypasses},
      {"routing.cache_arena_mib", samples.cache_arena_bytes_max / kMiB},
      {"routing.cache_entries", samples.cache_entries_max},
      {"store.append_s", spans.total_s("store.ShardWriter::append_day")},
      {"store.drain_s", spans.total_s("store.ShardWriter::drain")},
      {"store.spill_bytes_per_task", per_task(count("store.spill_bytes_total"))},
      {"store.fsyncs", count("store.fsyncs_total")},
      {"store.pending_mib_max", samples.pending_bytes_max / kMiB},
      {"store.open_s", spans.total_s("store.open_store")},
      {"store.append_failures", count("store.append_failures_total")},
      {"store.salvage_blocks", count("store.salvage_blocks_total")},
      {"core.hash_s", hash_s},
      {"core.hash_ns_per_row",
       result.hashes.rows > 0
           ? hash_s * 1e9 / static_cast<double>(result.hashes.rows)
           : 0.0},
      {"core.export_s", spans.total_s("core.export_pings_csv") +
                            spans.total_s("core.export_traces_csv")},
      {"core.export_mib", samples.export_bytes / kMiB},
      {"core.report_s", spans.total_s("core.write_full_report")},
      {"analysis.latency_s", exhibits_s("latency")},
      {"analysis.lastmile_s", exhibits_s("lastmile")},
      {"analysis.peering_s", exhibits_s("peering")},
      {"analysis.sec33_s", exhibits_s("sec33")},
      {"analysis.resolve_lookups", samples.resolve_lookups},
      {"obs.accounted_frac",
       result.run_s > 0 ? samples.accounted_s / result.run_s : 0.0},
  };
}

[[nodiscard]] Result run_traced(const Options& opt) {
  const Workload& w = *opt.workload;
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.enable();
  recorder.name_this_thread("main");
  Spans spans{true};
  TraceSamples samples;
  Result result;
  const fs::path store_dir = opt.work / "store";
  std::uint64_t run_end_ns = 0;
  std::optional<Assembled> study;
  analysis::IpToAsn resolver;

  if (w.resume) {
    {
      // The interrupted attempt, released as a finished process would be.
      Assembled first = assemble_study(spans, samples, opt, kStopAfterDay);
      {
        const auto span = spans.scope("measure.~Dataset");
        first.sc_data = measure::Dataset{};
        first.atlas_data = measure::Dataset{};
      }
      {
        const auto span = spans.scope("probes.~ProbeFleet");
        first.sc_fleet.reset();
        first.atlas_fleet.reset();
      }
      const auto span = spans.scope("topology.~World");
      first.world.reset();
    }
    const std::unique_ptr<core::Study> resumed = traced_resume(spans, opt);
    result.hashes = memory_hashes(spans, resumed->sc_dataset(),
                                  resumed->atlas_dataset());
    run_end_ns = obs::monotonic_ns();
  } else {
    study = assemble_study(spans, samples, opt, std::nullopt);
    {
      const auto span = spans.scope("analysis.IpToAsn::from_world");
      resolver = analysis::IpToAsn::from_world(*study->world);
    }
    result.hashes = w.stream ? streamed_hashes(spans, store_dir,
                                               *study->sc_fleet,
                                               *study->atlas_fleet)
                             : memory_hashes(spans, study->sc_data,
                                             study->atlas_data);
    if (w.report) {
      const std::uint64_t lookups_before = counter("resolve.lookups_total");
      write_artefacts(spans, opt.work / "out", study->view(resolver));
      samples.resolve_lookups =
          static_cast<double>(counter("resolve.lookups_total") - lookups_before);
      samples.export_bytes = static_cast<double>(
          fs::file_size(opt.work / "out" / "pings.csv") +
          fs::file_size(opt.work / "out" / "traceroutes.csv"));
    }
    run_end_ns = obs::monotonic_ns();
  }
  result.run_s = static_cast<double>(run_end_ns - opt.start_ns) / 1e9;

  // Layer accounting over the run window only.
  const std::vector<double> self = spans.self_s();
  for (std::size_t i = 0; i < self.size(); ++i) {
    if (spans.records()[i].start_ns < run_end_ns) samples.accounted_s += self[i];
  }

  // Exhibits, each timed on its own, after the run window.
  if (w.report) {
    const analysis::StudyView view = study->view(resolver);
    std::size_t sink = 0;
    for (const Exhibit& exhibit : exhibits()) {
      const auto span = spans.scope("analysis." + std::string{exhibit.name});
      sink += exhibit.run(view);
    }
    require(sink > 0, "the exhibits produced no rows");
  }
  check_outputs(opt, result);
  result.tasks = counter("campaign.tasks_delivered_total");
  result.layers = layer_metrics(spans, samples, result);

  spans.export_to(recorder, opt.config.seed);
  std::ofstream trace{opt.work / "trace.json"};
  recorder.write_json(trace);
  trace.close();
  require(!trace.fail(), "cannot write the trace");
  return result;
}

// --- entry -------------------------------------------------------------------

void print_result(std::ostream& out, const Options& opt, const Result& result,
                  const std::string& error) {
  util::JsonWriter json{out, /*pretty=*/false};
  json.begin_object();
  json.field("ok", error.empty());
  json.field("error", error);
  json.field("workload", opt.workload != nullptr ? opt.workload->name : "");
  json.field("seed", opt.config.seed);
  json.field("mode", opt.mode);
  json.field("run_s", result.run_s);
  json.field("setup_s", result.setup_s);
  json.field("sim_s", result.sim_s);
  json.field("tasks", result.tasks);
  json.field("peak_rss_mib", result.peak_rss_mib);
  json.field("sc", core::format_dataset_hash(result.hashes.sc));
  json.field("atlas", core::format_dataset_hash(result.hashes.atlas));
  json.field("report", result.report_hash);
  json.field("fsck_error", result.fsck_error);
  json.key("layers");
  json.begin_object();
  for (const auto& [name, value] : result.layers) json.field(name, value);
  json.end_object();
  json.end_object();
  out << "\n";
}

[[nodiscard]] Options parse_options(int argc, char** argv) {
  util::ArgParser args{"e2e_bench", "one run of one e2ebench workload"};
  args.add_option("workload", "", "paper_stream | default_report | faulted_resume");
  args.add_option("seed", "42", "study seed");
  args.add_option("mode", "run", "run | setup | traced");
  args.add_option("work", "", "fresh directory for the store and artefacts");
  args.add_option("scale", "", "override the workload's fleet scale (NxM)");
  args.add_option("days", "0", "override the Speedchecker campaign days");
  args.add_option("start-ns", "0", "monotonic launch time of this process");
  require(args.parse(argc, argv), args.error());

  Options opt;
  for (const Workload& workload : kWorkloads) {
    if (workload.name == args.get("workload")) opt.workload = &workload;
  }
  require(opt.workload != nullptr, "unknown --workload '" + args.get("workload") + "'");
  opt.mode = args.get("mode");
  require(opt.mode == "run" || opt.mode == "setup" || opt.mode == "traced",
          "unknown --mode '" + opt.mode + "'");
  require(!args.get("work").empty(), "--work is required");
  opt.work = args.get("work");
  if (const long start = args.get_int("start-ns"); start > 0) {
    opt.start_ns = static_cast<std::uint64_t>(start);
  }

  core::StudyConfig& config = opt.config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const core::ScaleSpec scale = core::parse_scale(
      args.get("scale").empty() ? opt.workload->scale : args.get("scale"));
  require(scale.ok(), scale.error);
  core::apply_scale(config, scale);
  if (const long days = args.get_int("days"); days > 0) {
    config.sc_campaign.days = static_cast<std::uint32_t>(days);
  }
  config.threads = opt.workload->threads;
  if (opt.workload->resume) {
    config.fault_profile = fault::FaultProfile::Harsh;
    config.io_fault_profile = fault::FaultProfile::Mild;
    config.fault_seed = 1337;
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t main_ns = obs::monotonic_ns();
  obs::Logger::global().set_level(obs::Level::Warn);
  Options opt;
  Result result;
  try {
    opt = parse_options(argc, argv);
    if (opt.start_ns == 0) opt.start_ns = main_ns;
    fs::create_directories(opt.work);
    result = opt.mode == "setup"    ? run_setup_only(opt)
             : opt.mode == "traced" ? run_traced(opt)
                                    : run_user_path(opt);
  } catch (const std::exception& error) {
    print_result(std::cout, opt, result, error.what());
    return 1;
  }
  print_result(std::cout, opt, result, "");
  return 0;
}
