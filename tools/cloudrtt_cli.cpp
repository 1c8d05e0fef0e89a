// cloudrtt — command-line front end to the library.
//
//   cloudrtt world   [--seed N]                    topology inventory
//   cloudrtt resolve <ip> [--seed N]               IP -> ASN via the pipeline
//   cloudrtt trace <country> <provider> [...]      one annotated traceroute
//   cloudrtt study   [--sc-probes N --days D ...]  campaign, CSVs, reports
//   cloudrtt run     [--scale paper ...]           streaming study, batch RAM

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string_view>
#include <vector>

#include "analysis/resolve.hpp"
#include "analysis/trace_analysis.hpp"
#include "core/export.hpp"
#include "core/report.hpp"
#include "core/scale.hpp"
#include "core/study.hpp"
#include "fault/plan.hpp"
#include "measure/engine.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "obs/trace_events.hpp"
#include "probes/fleet.hpp"
#include "store/io_env.hpp"
#include "store/salvage.hpp"
#include "topology/world.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/text.hpp"

namespace {

using namespace cloudrtt;

/// Upper bound on --threads. The value sizes the campaign worker pool (up to
/// one thread per 64-task chunk), so it has to be bounded where it enters;
/// past a few per core more threads only cost. It shapes nothing on disk.
constexpr long kMaxThreads = 256;

/// Resolve the study's log level: --quiet wins, then an explicit --log-level,
/// then the CLOUDRTT_LOG environment variable, then info (the study narrates
/// per-day progress by default).
void init_study_logging(const util::ArgParser& args) {
  obs::Level level = obs::Level::Info;
  if (const char* env = std::getenv("CLOUDRTT_LOG")) {
    if (const auto parsed = obs::level_from_string(env)) level = *parsed;
  }
  const std::string& flag = args.get("log-level");
  if (!flag.empty()) {
    if (const auto parsed = obs::level_from_string(flag)) {
      level = *parsed;
    } else {
      std::cerr << "unknown log level " << flag << ", keeping "
                << obs::to_string(level) << "\n";
    }
  }
  if (args.get_flag("quiet")) level = obs::Level::Warn;
  obs::Logger::global().set_level(level);
}

/// End-of-run operational summary: every registered counter, the latency
/// histograms, and the phase-timing tree.
void print_observability_summary() {
  const obs::Registry::Snapshot snap = obs::Registry::global().snapshot();
  util::TextTable counters;
  counters.set_header({"counter", "value"});
  for (const auto& entry : snap.counters) {
    counters.add_row({entry.name,
                      std::to_string(static_cast<std::uint64_t>(entry.value))});
  }
  std::cout << "\n-- metrics --\n" << counters.render();
  if (!snap.histograms.empty()) {
    util::TextTable hists;
    hists.set_header(
        {"histogram", "count", "mean", "p50", "p90", "p99", "max"});
    for (const auto& entry : snap.histograms) {
      hists.add_row({entry.name, std::to_string(entry.count),
                     util::format_double(entry.mean, 2),
                     util::format_double(entry.p50, 2),
                     util::format_double(entry.p90, 2),
                     util::format_double(entry.p99, 2),
                     util::format_double(entry.max, 2)});
    }
    std::cout << hists.render();
  }
  std::cout << "\n-- phase timings --\n";
  obs::SpanTracker::global().write_text(std::cout);
}

/// One-screen digest of what the fault schedule did to the campaign: how
/// many submissions failed, were retried, exhausted their retries, and how
/// much budget outages burned. Reads the same registry the JSON export does.
void print_fault_summary() {
  const obs::Registry::Snapshot snap = obs::Registry::global().snapshot();
  util::TextTable table;
  table.set_header({"fault counter", "value"});
  bool any = false;
  for (const auto& entry : snap.counters) {
    if (entry.name.find("fault") == std::string::npos &&
        entry.name != "campaign.tasks_delivered_total" &&
        entry.name != "campaign.empty_days_total") {
      continue;
    }
    table.add_row({entry.name,
                   std::to_string(static_cast<std::uint64_t>(entry.value))});
    any = true;
  }
  if (any) std::cout << "\n-- fault injection --\n" << table.render();
}

int cmd_world(int argc, const char* const* argv) {
  util::ArgParser args{"cloudrtt world",
                       "print the synthetic-Internet inventory"};
  args.add_option("seed", "42", "world seed");
  if (!args.parse(argc, argv)) return 1;

  const topology::World world{
      topology::WorldConfig{static_cast<std::uint64_t>(args.get_int("seed"))}};
  std::size_t isps = world.isps().size();
  std::size_t named = 0;
  for (const topology::IspNetwork& isp : world.isps()) {
    if (isp.named) ++named;
  }
  util::TextTable table;
  table.set_header({"component", "count"});
  table.add_row({"countries", std::to_string(world.countries().all().size())});
  table.add_row(
      {"backbone nodes", std::to_string(world.backbone().node_count())});
  table.add_row(
      {"backbone links", std::to_string(world.backbone().edge_count())});
  table.add_row({"access ISPs", std::to_string(isps) + " (" +
                                    std::to_string(named) +
                                    " from the paper)"});
  table.add_row({"tier-1/regional carriers",
                 std::to_string(topology::tier1_carriers().size())});
  table.add_row({"IXPs", std::to_string(topology::known_ixps().size())});
  table.add_row({"registered ASes", std::to_string(world.registry().size())});
  table.add_row({"cloud regions", std::to_string(world.endpoints().size())});
  table.add_row({"announced prefixes (RIB)",
                 std::to_string(world.rib_dump().size())});
  table.add_row({"whois-only prefixes",
                 std::to_string(world.whois_entries().size())});
  std::cout << table.render();
  return 0;
}

int cmd_resolve(int argc, const char* const* argv) {
  util::ArgParser args{"cloudrtt resolve", "resolve an IPv4 address to its AS"};
  args.add_positional("ip", "dotted-quad IPv4 address");
  args.add_option("seed", "42", "world seed");
  if (!args.parse(argc, argv)) return 1;

  const auto addr = net::Ipv4Address::parse(args.get("ip"));
  if (!addr) {
    std::cerr << "not a valid IPv4 address: " << args.get("ip") << "\n";
    return 1;
  }
  const topology::World world{
      topology::WorldConfig{static_cast<std::uint64_t>(args.get_int("seed"))}};
  const analysis::IpToAsn resolver = analysis::IpToAsn::from_world(world);
  if (net::is_private(*addr)) {
    std::cout << addr->to_string() << ": private address space ("
              << (net::is_cgn(*addr) ? "CGN 100.64/10" : "RFC1918/loopback/LL")
              << ")\n";
    return 0;
  }
  const auto res = resolver.resolve(*addr);
  if (!res) {
    std::cout << addr->to_string() << ": no covering prefix in RIB or whois\n";
    return 0;
  }
  const topology::AsInfo& info = world.registry().at(res->asn);
  std::cout << addr->to_string() << ": AS" << res->asn << " (" << info.name
            << ")" << (res->is_ixp ? " [IXP peering LAN]" : "")
            << (res->source == analysis::ResolutionSource::Whois
                    ? " [whois fallback]"
                    : " [RIB]")
            << "\n";
  return 0;
}

int cmd_trace(int argc, const char* const* argv) {
  util::ArgParser args{
      "cloudrtt trace",
      "run one annotated traceroute from a country to a provider"};
  args.add_positional("country", "probe country (ISO code)", "DE");
  args.add_positional("provider", "provider ticker (AMZN/GCP/MSFT/...)",
                      "AMZN");
  args.add_option("seed", "42", "world seed");
  args.add_option("access", "wifi", "probe access: wifi | cell | wired");
  if (!args.parse(argc, argv)) return 1;

  const auto provider = cloud::provider_from_ticker(args.get("provider"));
  if (!provider) {
    std::cerr << "unknown provider ticker " << args.get("provider") << "\n";
    return 1;
  }
  topology::World world{
      topology::WorldConfig{static_cast<std::uint64_t>(args.get_int("seed"))}};
  if (world.countries().find(args.get("country")) == nullptr) {
    std::cerr << "unknown country " << args.get("country") << "\n";
    return 1;
  }
  lastmile::AccessTech access = lastmile::AccessTech::HomeWifi;
  if (args.get("access") == "cell") access = lastmile::AccessTech::Cellular;
  if (args.get("access") == "wired") access = lastmile::AccessTech::Wired;

  probes::FleetConfig fleet_config{probes::Platform::Speedchecker, 15000};
  fleet_config.access_override = access;
  probes::ProbeFleet fleet{world, fleet_config};
  const auto panel = fleet.in_country(args.get("country"));
  if (panel.empty()) {
    std::cerr << "no probes available in " << args.get("country") << "\n";
    return 1;
  }
  const probes::Probe& probe = *panel.front();

  const topology::CloudEndpoint* endpoint = nullptr;
  double best = 1e18;
  for (const topology::CloudEndpoint& candidate : world.endpoints()) {
    if (candidate.region->provider != *provider) continue;
    const double km =
        geo::haversine_km(probe.location, candidate.region->location);
    if (km < best) {
      best = km;
      endpoint = &candidate;
    }
  }

  measure::Engine engine{world};
  const analysis::IpToAsn resolver = analysis::IpToAsn::from_world(world);
  util::Rng rng = world.fork_rng("cli-trace");
  const measure::TraceRecord trace =
      engine.traceroute(probe, *endpoint, 0, rng);

  std::cout << "traceroute to " << endpoint->vm_ip.to_string() << " ("
            << endpoint->region->region_name << ", " << endpoint->region->city
            << "), from " << probe.city->name << " via " << probe.isp->name
            << " [" << to_string(probe.access) << "]\n";
  for (const measure::HopRecord& hop : trace.hops) {
    std::cout << " " << (hop.ttl < 10 ? " " : "") << static_cast<int>(hop.ttl)
              << "  ";
    if (!hop.responded) {
      std::cout << "* * *\n";
      continue;
    }
    std::cout << hop.ip.to_string() << "  "
              << util::format_double(hop.rtt_ms, 2) << " ms";
    if (const auto res = resolver.resolve(hop.ip)) {
      std::cout << "  [AS" << res->asn << " "
                << world.registry().at(res->asn).name << "]";
    } else if (net::is_private(hop.ip)) {
      std::cout << "  [private]";
    }
    std::cout << "\n";
  }
  const auto obs = analysis::classify_interconnect(trace, resolver);
  if (obs.valid) {
    std::cout << "interconnection: " << topology::to_string(obs.mode) << "\n";
  }
  return 0;
}

int cmd_study(int argc, const char* const* argv,
              const char* program = "cloudrtt study",
              const char* description =
                  "run the full measurement campaign and write artefacts") {
  util::ArgParser args{program, description};
  args.add_option("seed", "42", "study seed");
  args.add_option("scale", "", "fleet scale: default | paper (115k/8.5k "
                               "probes) | NxM probe counts "
                               "(default: CLOUDRTT_SCALE or default)");
  args.add_option("sc-probes", "", "Speedchecker fleet size (overrides "
                                   "--scale; default 6000)");
  args.add_option("atlas-probes", "", "RIPE Atlas fleet size (overrides "
                                      "--scale; default 1500)");
  args.add_option("days", "10", "campaign days");
  args.add_option("budget", "", "daily task budget (overrides --scale; "
                                "default 15000)");
  args.add_option("threads", "1", "worker threads for campaign execution "
                                  "(any value yields identical datasets)");
  args.add_option("out", "cloudrtt-out", "output directory");
  args.add_option("log-level", "", "trace|debug|info|warn|error|off "
                                   "(default: CLOUDRTT_LOG or info)");
  args.add_option("metrics-out", "", "write the metrics registry + phase "
                                     "timings as JSON to this file");
  args.add_option("trace-out", "", "write a Chrome-trace JSON (open in "
                                   "chrome://tracing or Perfetto) of phase "
                                   "and executor spans to this file");
  args.add_flag("progress", "print a per-day progress line (days/sec, "
                            "tasks/sec, ETA, worker busy %) to stderr");
  args.add_option("fault-profile", "none",
                  "fault-injection intensity: none | mild | harsh");
  args.add_option("io-fault-profile", "none",
                  "disk-fault intensity for the streaming store (EIO, torn "
                  "appends, lying fsyncs): none | mild | harsh; never "
                  "changes the dataset bits");
  args.add_option("fault-seed", "1337", "fault-schedule seed");
  args.add_option("checkpoint-dir", "", "snapshot the campaign after every "
                                        "day into this directory (format=4 "
                                        "streaming store: one manifest and "
                                        "one shard file per platform)");
  args.add_flag("resume", "resume from --checkpoint-dir if a checkpoint "
                          "exists, salvaging any crash-torn shard tail");
  args.add_flag("stream", "stream rows to the store batch by batch and drop "
                          "them from memory (needs --checkpoint-dir; RAM "
                          "holds one batch of rows and the day's serialised "
                          "spill; CSV export and the reports are skipped — "
                          "the store is the dataset)");
  args.add_flag("fsck", "validate the checkpoint store in --checkpoint-dir "
                        "and exit (0 = healthy)");
  args.add_option("stop-after-day", "0", "abandon each campaign once this many "
                                         "days completed (0 = run to the end); "
                                         "simulates a killed driver");
  args.add_flag("quiet", "only warnings and errors (log level warn)");
  args.add_flag("no-atlas", "skip the Atlas campaign");
  args.add_flag("no-export", "skip CSV export (report.json and report.txt "
                             "only)");
  args.add_flag("dataset-hash", "print the FNV-1a hash of the full exported "
                                "dataset (reproducibility gate)");
  if (!args.parse(argc, argv)) return 1;
  init_study_logging(args);

  core::StudyConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const core::ScaleSpec scale = core::resolve_scale(args.get("scale"));
  if (!scale.ok()) {
    std::cerr << scale.error << "\n";
    return 1;
  }
  core::apply_scale(config, scale);
  if (!args.get("sc-probes").empty()) {
    config.sc_probes = static_cast<std::size_t>(args.get_int("sc-probes", 0));
  }
  if (!args.get("atlas-probes").empty()) {
    config.atlas_probes =
        static_cast<std::size_t>(args.get_int("atlas-probes", 0));
  }
  config.include_atlas = !args.get_flag("no-atlas");
  config.sc_campaign.days =
      static_cast<std::uint32_t>(args.get_int("days", 0));
  if (!args.get("budget").empty()) {
    config.sc_campaign.daily_budget =
        static_cast<std::size_t>(args.get_int("budget", 0));
  }
  config.threads =
      static_cast<unsigned>(args.get_int("threads", 1, kMaxThreads));
  const long stop_after_day = args.get_int("stop-after-day", 0);

  const auto profile = fault::profile_from_string(args.get("fault-profile"));
  if (!profile) {
    std::cerr << "unknown fault profile '" << args.get("fault-profile")
              << "' (expected none | mild | harsh)\n";
    return 1;
  }
  config.fault_profile = *profile;
  const auto io_profile =
      fault::profile_from_string(args.get("io-fault-profile"));
  if (!io_profile) {
    std::cerr << "unknown io fault profile '" << args.get("io-fault-profile")
              << "' (expected none | mild | harsh)\n";
    return 1;
  }
  config.io_fault_profile = *io_profile;
  config.fault_seed = static_cast<std::uint64_t>(args.get_int("fault-seed"));

  core::RunControl control;
  control.checkpoint_dir = args.get("checkpoint-dir");
  control.resume = args.get_flag("resume");
  control.stream = args.get_flag("stream");
  if (control.resume && control.checkpoint_dir.empty()) {
    std::cerr << "--resume needs --checkpoint-dir\n";
    return 1;
  }
  if (control.stream && control.checkpoint_dir.empty()) {
    std::cerr << "--stream needs --checkpoint-dir (the store is the only "
                 "copy of the rows)\n";
    return 1;
  }

  if (args.get_flag("fsck")) {
    // Offline integrity check: no world build, no campaign — read the store
    // artefacts for both platforms and report. A platform is present when
    // its manifest exists (FsckReport::found); an empty, unreadable or
    // legacy one reports DAMAGED. Exit 0 only when every store present is
    // healthy and at least one was found.
    if (control.checkpoint_dir.empty()) {
      std::cerr << "--fsck needs --checkpoint-dir\n";
      return 1;
    }
    const std::filesystem::path store_dir{control.checkpoint_dir};
    store::IoEnv io;
    bool found = false;
    bool healthy = true;
    for (const std::string_view platform : {"speedchecker", "atlas"}) {
      const store::FsckReport report = store::fsck(store_dir, platform, io);
      if (!report.found) continue;
      found = true;
      std::cout << report.render(platform) << "\n";
      healthy &= report.healthy();
    }
    if (!found) {
      std::cerr << "no checkpoint store found in " << store_dir.string()
                << "\n";
      return 1;
    }
    return healthy ? 0 : 1;
  }
  if (stop_after_day > 0) {
    control.stop_after_day = static_cast<std::uint32_t>(stop_after_day);
  }

  if (!args.get("trace-out").empty()) {
    obs::TraceRecorder::global().enable();
    obs::TraceRecorder::global().name_this_thread("main");
  }
  if (args.get_flag("progress")) obs::Progress::global().enable();

  // Writes --metrics-out and --trace-out if requested. Shared between the
  // success path and the abort path: a failed campaign still leaves a story
  // in the metrics registry and the phase tree, so flush it either way.
  const auto flush_observability = [&args]() -> bool {
    bool ok = true;
    if (const std::string& metrics_path = args.get("metrics-out");
        !metrics_path.empty()) {
      std::ofstream metrics{metrics_path};
      if (metrics) {
        obs::write_observability_json(metrics);
        std::cout << "metrics written to " << metrics_path << "\n";
      } else {
        std::cerr << "cannot write metrics to " << metrics_path << "\n";
        ok = false;
      }
    }
    if (const std::string& trace_path = args.get("trace-out");
        !trace_path.empty()) {
      std::ofstream trace{trace_path};
      if (trace) {
        obs::TraceRecorder::global().write_json(trace);
        std::cout << "trace written to " << trace_path
                  << " (load in chrome://tracing)\n";
      } else {
        std::cerr << "cannot write trace to " << trace_path << "\n";
        ok = false;
      }
    }
    return ok;
  };

  std::cout << "running study: scale " << scale.name << " ("
            << config.sc_probes << " SC / " << config.atlas_probes
            << " Atlas probes), " << config.sc_campaign.days
            << " days, seed " << config.seed;
  if (config.threads > 1) {
    std::cout << ", " << config.threads << " threads";
  }
  if (config.fault_profile != fault::FaultProfile::None) {
    std::cout << ", fault profile " << to_string(config.fault_profile);
  }
  if (control.stream) std::cout << ", streaming";
  std::cout << "\n";
  core::Study study{config};
  try {
    study.run(control);
  } catch (const std::runtime_error& error) {
    std::cerr << "study failed: " << error.what() << "\n";
    flush_observability();
    if (config.fault_profile != fault::FaultProfile::None) {
      print_fault_summary();
    }
    if (!args.get_flag("quiet")) print_observability_summary();
    return 1;
  }
  // A streamed run's rows live only in the store: the dataset hash reads
  // it, and what is durably on disk is counted from the hash passes, or
  // from an fsck when the run does not hash.
  const std::filesystem::path store_dir{control.checkpoint_dir};
  const bool hashing = args.get_flag("dataset-hash");
  std::uint64_t sc = 0;
  std::uint64_t atlas = 0;
  std::uint64_t streamed_rows = 0;
  if (control.stream && (hashing || study.completed())) {
    store::IoEnv io;
    const probes::ProbeFleet* atlas_fleet =
        config.include_atlas ? &study.atlas_fleet() : nullptr;
    for (const std::string_view platform : {"speedchecker", "atlas"}) {
      if (platform == "atlas" && !config.include_atlas) continue;
      if (hashing) {
        const core::StreamedHashResult hashed = core::streamed_dataset_hash(
            store_dir, platform, io, &study.sc_fleet(), atlas_fleet);
        if (!hashed.ok()) {
          std::cerr << "dataset-hash failed: " << hashed.error << "\n";
          return 1;
        }
        (platform == "atlas" ? atlas : sc) = hashed.hash;
        streamed_rows += hashed.rows;
      } else {
        const store::FsckReport report = store::fsck(store_dir, platform, io);
        if (!report.healthy()) {
          std::cerr << "cannot count the streamed rows: "
                    << report.render(platform) << "\n";
          return 1;
        }
        streamed_rows += report.committed_rows + report.tail_rows;
      }
    }
  } else if (hashing) {
    sc = core::dataset_hash(study.sc_dataset());
    if (config.include_atlas) atlas = core::dataset_hash(study.atlas_dataset());
  }

  if (control.stream && study.completed()) {
    std::cout << "streamed " << streamed_rows << " task rows (scale "
              << scale.name << ", " << config.threads
              << (config.threads == 1 ? " thread" : " threads") << ") to "
              << store_dir.string() << "\n";
  } else {
    std::cout << "collected " << study.sc_dataset().pings.size()
              << " pings / " << study.sc_dataset().traces.size()
              << " traceroutes (scale " << scale.name << ", "
              << config.threads
              << (config.threads == 1 ? " thread" : " threads") << ")\n";
  }

  if (hashing) {
    // Two same-seed runs must print identical lines; the determinism CI gate
    // diffs this output across a double run and a kill+resume cycle. The
    // streamed flavour hashes the store directly and is bit-identical to the
    // in-memory hash by construction.
    std::uint64_t state = sc ^ (atlas * 0x9e3779b97f4a7c15ULL);
    const std::uint64_t combined = util::splitmix64(state);
    std::cout << "dataset-hash sc=" << core::format_dataset_hash(sc)
              << " atlas=" << core::format_dataset_hash(atlas)
              << " combined=" << core::format_dataset_hash(combined) << "\n";
  }

  if (!study.completed()) {
    // --stop-after-day left the campaign mid-way; there is no full dataset
    // to report on. The checkpoint (if any) is the artefact.
    std::cout << "study stopped early; resume from --checkpoint-dir to "
                 "finish\n";
    flush_observability();
    return 0;
  }

  if (control.stream) {
    // No rows in memory: the store *is* the artefact set. Export/report need
    // a materialised dataset, so a streamed run stops here.
    std::cout << "store written to " << store_dir.string() << "/\n";
  } else {
    const std::filesystem::path out_dir{args.get("out")};
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::cerr << "cannot create " << out_dir << ": " << ec.message() << "\n";
      return 1;
    }
    // An artefact is written only if its stream is still good once closed;
    // name every one that is not, and fail the run.
    bool written = true;
    const auto close_artefact = [&](std::ofstream& file,
                                    std::string_view name) {
      file.close();
      if (!file) {
        std::cerr << "cannot write " << (out_dir / name).string() << "\n";
        written = false;
      }
    };
    const auto write_artefact = [&](std::string_view name,
                                    const auto& write) {
      std::ofstream file{out_dir / name};
      if (file) write(file);
      close_artefact(file, name);
    };
    if (!args.get_flag("no-export")) {
      write_artefact("pings.csv", [&](std::ostream& out) {
        core::export_pings_csv(out, study.sc_dataset());
      });
      write_artefact("traceroutes.csv", [&](std::ostream& out) {
        core::export_traces_csv(out, study.sc_dataset());
      });
    }
    {
      // Both reports come from one preparation and one computation of
      // each exhibit.
      obs::Span phase = obs::span("core.report");
      std::ofstream text{out_dir / "report.txt"};
      write_artefact("report.json", [&](std::ostream& out) {
        core::write_full_report(out, study.view(), &text);
      });
      close_artefact(text, "report.txt");
    }
    if (!written) {
      flush_observability();
      return 1;
    }
    std::cout << "artefacts written to " << out_dir.string() << "/\n";
  }

  if (!flush_observability()) return 1;
  if (config.fault_profile != fault::FaultProfile::None) print_fault_summary();
  if (!args.get_flag("quiet")) print_observability_summary();
  return 0;
}

int cmd_run(int argc, const char* const* argv) {
  // `cloudrtt run` — the streaming-first spelling of `study`: rows leave RAM
  // batch by batch as the campaign executes them, and each day's spill is
  // appended when the day commits (RAM holds one batch of rows plus the
  // day's ~140 B a task of serialised spill, which is what lets `--scale
  // paper` run the 115k-probe fleet), the store is the artefact, and the
  // dataset hash is printed from the streamed scan. Defaults are prepended
  // so later (user) arguments override them.
  std::vector<const char*> forwarded;
  forwarded.push_back("cloudrtt run");
  forwarded.push_back("--stream");
  forwarded.push_back("--checkpoint-dir");
  forwarded.push_back("cloudrtt-out/store");
  forwarded.push_back("--dataset-hash");
  for (int i = 1; i < argc; ++i) forwarded.push_back(argv[i]);
  return cmd_study(static_cast<int>(forwarded.size()), forwarded.data(),
                   "cloudrtt run",
                   "run the campaign streaming each batch to the store "
                   "(study --stream with a default store dir)");
}

void print_usage() {
  std::cout <<
      "cloudrtt — synthetic cloud-connectivity measurement toolkit\n\n"
      "subcommands:\n"
      "  world    print the synthetic-Internet inventory\n"
      "  resolve  resolve an IPv4 address through the analysis pipeline\n"
      "  trace    run one annotated traceroute\n"
      "  study    run the full campaign and export artefacts\n"
      "  run      streaming study: memory per batch, --scale paper capable\n\n"
      "run `cloudrtt <subcommand> --help` for details.\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string_view command = argv[1];
  // Shift argv so subcommand parsers see their own name at index 0.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (command == "world") return cmd_world(sub_argc, sub_argv);
    if (command == "resolve") return cmd_resolve(sub_argc, sub_argv);
    if (command == "trace") return cmd_trace(sub_argc, sub_argv);
    if (command == "study") return cmd_study(sub_argc, sub_argv);
    if (command == "run") return cmd_run(sub_argc, sub_argv);
  } catch (const util::ArgError& error) {
    // A malformed option value: one line, like an unknown option.
    std::cerr << error.what() << "\n";
    return 1;
  }
  if (command == "--help" || command == "-h") {
    print_usage();
    return 0;
  }
  std::cerr << "unknown subcommand: " << command << "\n";
  print_usage();
  return 1;
}
