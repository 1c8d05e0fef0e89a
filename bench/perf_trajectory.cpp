// perf_trajectory — the performance-trajectory recorder behind the committed
// BENCH_<n>.json files (see README "Performance trajectory").
//
// Runs the canonical suite with wall-clock sampled over --reps repetitions:
//
//   world_build        synthetic-Internet construction from the seed
//   campaign_day_tN    one paper-scale campaign day at each --threads value;
//                      every run's dataset hash must be bit-identical to the
//                      first (the recorder refuses to time a wrong dataset)
//   spill_day          streaming store: frame + checksum + append + commit
//                      the same day through store::ShardWriter, then prove
//                      the spilled store reloads to the same bits
//   export_hash        FNV-1a over the full exported dataset
//
// and writes a schema-versioned obs::BenchReport. tools/bench_compare diffs
// two reports and fails on wall-clock regression or dataset-hash drift.
// Not a google-benchmark binary: sections need custom artefacts (hashes,
// thread sweeps, the JSON report), and the suite is run by CI as a job, not
// as a microbenchmark.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "core/scale.hpp"
#include "measure/campaign.hpp"
#include "obs/bench_report.hpp"
#include "obs/process.hpp"
#include "obs/trace_events.hpp"
#include "probes/fleet.hpp"
#include "store/io_env.hpp"
#include "store/salvage.hpp"
#include "store/shard_writer.hpp"
#include "topology/world.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/text.hpp"

namespace {

using namespace cloudrtt;

/// CLOUDRTT_GIT_REV wins (CI sets it from the checkout), else ask git.
[[nodiscard]] std::string detect_git_rev() {
  if (const char* env = std::getenv("CLOUDRTT_GIT_REV")) return env;
  std::FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe != nullptr) {
    char buffer[64] = {};
    const bool read = std::fgets(buffer, sizeof(buffer), pipe) != nullptr;
    ::pclose(pipe);
    if (read) {
      std::string rev{buffer};
      while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
        rev.pop_back();
      }
      if (!rev.empty()) return rev;
    }
  }
  return "unknown";
}

/// Upper bound on a --threads entry, as for the cloudrtt CLI: each entry
/// starts that many campaign workers.
constexpr unsigned kMaxThreads = 256;

/// The comma-separated --threads list, each entry a whole value in
/// [1, kMaxThreads]. Throws util::ArgError otherwise.
[[nodiscard]] std::vector<unsigned> parse_thread_list(const std::string& text) {
  std::vector<unsigned> threads;
  std::string token;
  for (const char ch : text + ",") {
    if (ch == ',') {
      if (!token.empty()) {
        unsigned value = 0;
        const char* const end = token.data() + token.size();
        const auto [stop, failure] = std::from_chars(token.data(), end, value);
        if (failure != std::errc{} || stop != end || value < 1 ||
            value > kMaxThreads) {
          throw util::ArgError{"--threads: expected integers in [1, " +
                               std::to_string(kMaxThreads) + "], got '" +
                               token + "'"};
        }
        threads.push_back(value);
        token.clear();
      }
    } else if (ch != ' ') {
      token.push_back(ch);
    }
  }
  if (threads.empty()) throw util::ArgError{"--threads: the list is empty"};
  return threads;
}

int run_suite(int argc, char** argv) {
  util::ArgParser args{"perf_trajectory",
                       "record the canonical performance-trajectory suite as "
                       "a BENCH_<n>.json report"};
  args.add_option("reps", "3", "wall-clock samples per section");
  args.add_option("probes", "2000", "Speedchecker fleet size");
  args.add_option("budget", "20000", "daily task budget");
  args.add_option("days", "1", "campaign days per timed run");
  args.add_option("seed", "7", "world/study seed");
  args.add_option("threads", "1,4,8",
                  "comma-separated worker counts for the campaign-day sweep");
  args.add_option("bench-id", "19", "the <n> in BENCH_<n>.json");
  args.add_option("out", "", "report path (default BENCH_<bench-id>.json)");
  args.add_option("trace-out", "",
                  "also write a Chrome-trace JSON of the suite");
  args.add_flag("quick", "reduced-scale smoke run (500 probes, 4000 budget, "
                         "2 reps) — hashes not comparable to full-scale "
                         "reports");
  args.add_flag("paper", "also record the paper-scale streamed campaign day "
                         "(115k-probe fleet, budget scaled to match, rows "
                         "spilled through the shard store; section "
                         "paper_day_stream)");
  if (!args.parse(argc, argv)) return 1;

  const bool quick = args.get_flag("quick");
  const auto reps =
      static_cast<unsigned>(quick ? 2 : std::max(1L, args.get_int("reps")));
  const auto probes =
      static_cast<std::size_t>(quick ? 500 : args.get_int("probes"));
  const auto budget =
      static_cast<std::size_t>(quick ? 4000 : args.get_int("budget"));
  const auto days = static_cast<std::uint32_t>(args.get_int("days"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const std::vector<unsigned> thread_list =
      parse_thread_list(args.get("threads"));

  if (!args.get("trace-out").empty()) {
    obs::TraceRecorder::global().enable();
    obs::TraceRecorder::global().name_this_thread("main");
  }

  obs::BenchReport report;
  report.bench_id = static_cast<int>(args.get_int("bench-id"));
  report.git_rev = detect_git_rev();
  report.seed = seed;
  report.probes = probes;
  report.daily_budget = budget;
  report.days = days;
  report.repetitions = reps;

  std::cout << "perf_trajectory: " << probes << " probes, budget " << budget
            << ", " << days << " day(s), seed " << seed << ", " << reps
            << " rep(s)\n";

  // --- world_build ---------------------------------------------------------
  {
    obs::BenchSection section;
    section.name = "world_build";
    std::size_t sink = 0;
    for (unsigned rep = 0; rep < reps; ++rep) {
      const obs::Stopwatch watch;
      const topology::World world{topology::WorldConfig{seed}};
      section.wall_ms.push_back(watch.elapsed_ms());
      sink += world.endpoints().size();
    }
    CLOUDRTT_CHECK(sink > 0, "world build produced no cloud endpoints");
    report.sections.push_back(std::move(section));
  }

  // Shared fixture for the campaign sections (construction untimed).
  topology::World world{topology::WorldConfig{seed}};
  const probes::ProbeFleet fleet{
      world, probes::FleetConfig{probes::Platform::Speedchecker, probes}};
  measure::CampaignConfig config;
  config.days = days;
  config.daily_budget = budget;
  config.run_case_studies = false;

  // --- campaign_day_tN sweep ----------------------------------------------
  // The same seed must produce the same bits at every worker count; the
  // recorder asserts that before it reports any time, so a regression in the
  // executor's chunk/RNG discipline fails the bench instead of producing a
  // fast wrong number.
  std::uint64_t reference_hash = 0;
  measure::Dataset reference_data;
  for (const unsigned threads : thread_list) {
    config.threads = threads;
    const measure::Campaign campaign{world, fleet, config};
    obs::BenchSection section;
    section.name = "campaign_day_t" + std::to_string(threads);
    section.threads = static_cast<int>(threads);
    std::uint64_t hash = 0;
    for (unsigned rep = 0; rep < reps; ++rep) {
      const obs::Stopwatch watch;
      measure::Dataset data = campaign.run(world.fork_rng("bench/trajectory"));
      section.wall_ms.push_back(watch.elapsed_ms());
      hash = core::dataset_hash(data);
      if (reference_hash == 0) {
        reference_hash = hash;
        reference_data = std::move(data);
      }
      CLOUDRTT_CHECK(hash == reference_hash, "dataset hash drifted at ",
                     threads, " thread(s): ",
                     core::format_dataset_hash(hash), " vs reference ",
                     core::format_dataset_hash(reference_hash));
    }
    section.dataset_hash = core::format_dataset_hash(hash);
    report.sections.push_back(std::move(section));
    std::cout << "  campaign_day_t" << threads << ": p50 "
              << util::format_double(report.sections.back().p50_ms(), 1)
              << " ms, hash " << report.sections.back().dataset_hash << "\n";
  }
  report.dataset_hash = core::format_dataset_hash(reference_hash);

  // --- spill_day -----------------------------------------------------------
  // Streaming-store throughput: the per-day work the day_rows hook adds to
  // a campaign (framing, checksumming, fsynced appends, manifest commit).
  {
    const std::filesystem::path spill_dir =
        std::filesystem::temp_directory_path() / "cloudrtt-perf-spill";
    store::IoEnv io;
    measure::CampaignState done;
    done.next_day = days;
    obs::BenchSection section;
    section.name = "spill_day";
    for (unsigned rep = 0; rep < reps; ++rep) {
      const obs::Stopwatch watch;
      store::ShardWriter writer{spill_dir,
                                store::StoreMeta{"speedchecker", seed}, io,
                                /*fresh=*/true};
      CLOUDRTT_CHECK(writer.adopt(reference_data, done),
                     "spill was not durable");
      section.wall_ms.push_back(watch.elapsed_ms());
    }
    // One salvage-validated reopen: the spilled store must reload to the
    // exact bits the campaign collected.
    const store::OpenResult opened =
        store::open_store(spill_dir, "speedchecker", io, /*repair=*/false);
    measure::Dataset reloaded;
    reloaded.bind(&fleet, nullptr);
    const std::string error = store::scan_rows(
        spill_dir, "speedchecker", opened, &fleet, nullptr,
        [&](const measure::Dataset& block) { reloaded.append(block); });
    CLOUDRTT_CHECK(error.empty(), "spilled store failed to reload: ", error);
    CLOUDRTT_CHECK(core::dataset_hash(reloaded) == reference_hash,
                   "spill round-trip changed the dataset hash");
    report.sections.push_back(std::move(section));
    std::error_code spill_cleanup;
    std::filesystem::remove_all(spill_dir, spill_cleanup);
  }

  // --- export_hash ---------------------------------------------------------
  {
    obs::BenchSection section;
    section.name = "export_hash";
    for (unsigned rep = 0; rep < reps; ++rep) {
      const obs::Stopwatch watch;
      const std::uint64_t hash = core::dataset_hash(reference_data);
      section.wall_ms.push_back(watch.elapsed_ms());
      CLOUDRTT_CHECK(hash == reference_hash, "export hash is not stable");
    }
    report.sections.push_back(std::move(section));
  }

  // --- paper_day_stream (--paper) ------------------------------------------
  // `--scale paper` as a first-class benchmarked configuration: a 115k-probe
  // fleet runs one campaign day with every batch of rows streamed through
  // store::ShardWriter and dropped from RAM, exactly what `cloudrtt run
  // --scale paper` does. The section hash is the streamed store hash
  // (bit-identical to the in-memory hash by construction) and
  // report.peak_rss_bytes — recorded after this leg — is the committed
  // evidence that paper scale fits in a batch of rows plus a day's
  // serialised spill (CI asserts a ceiling on it).
  if (args.get_flag("paper")) {
    const core::ScaleSpec paper = core::parse_scale("paper");
    const probes::ProbeFleet paper_fleet{
        world,
        probes::FleetConfig{probes::Platform::Speedchecker, paper.sc_probes}};
    measure::CampaignConfig paper_config;
    paper_config.days = 1;
    paper_config.daily_budget = static_cast<std::size_t>(
        static_cast<double>(budget) * paper.sc_multiplier());
    paper_config.run_case_studies = false;
    paper_config.threads = thread_list.back();
    const measure::Campaign campaign{world, paper_fleet, paper_config};
    const std::filesystem::path spill_dir =
        std::filesystem::temp_directory_path() / "cloudrtt-perf-paper";
    store::IoEnv io;
    obs::BenchSection section;
    section.name = "paper_day_stream";
    section.threads = static_cast<int>(paper_config.threads);
    std::cout << "  paper_day_stream: " << paper_fleet.probes().size()
              << " probes, budget " << paper_config.daily_budget << ", "
              << paper_config.threads << " thread(s)\n";
    std::uint64_t paper_hash = 0;
    for (unsigned rep = 0; rep < reps; ++rep) {
      const obs::Stopwatch watch;
      std::uint64_t rows = 0;
      {
        store::ShardWriter writer{spill_dir,
                                  store::StoreMeta{"speedchecker", seed}, io,
                                  /*fresh=*/true};
        measure::RunHooks hooks;
        hooks.day_rows = [&writer](std::uint32_t day, std::size_t cursor,
                                   std::uint32_t first_task,
                                   const measure::Dataset& data,
                                   std::size_t ping_begin,
                                   std::size_t trace_begin) {
          (void)writer.append_day(day, cursor, first_task, data, ping_begin,
                                  trace_begin);
        };
        hooks.after_day = [&writer](const measure::CampaignState& next,
                                    const measure::Dataset&) {
          (void)writer.commit(next);
          return true;
        };
        hooks.drop_day_rows = true;
        const measure::Dataset data =
            campaign.run(world.fork_rng("bench/trajectory-paper"), {}, hooks);
        CLOUDRTT_CHECK(data.pings.empty() && data.traces.empty(),
                       "streamed paper day left rows in memory");
      }  // writer drained: the store is the only copy of the rows
      section.wall_ms.push_back(watch.elapsed_ms());
      const core::StreamedHashResult hashed = core::streamed_dataset_hash(
          spill_dir, "speedchecker", io, &paper_fleet, nullptr);
      CLOUDRTT_CHECK(hashed.ok(), "paper store hash failed: ", hashed.error);
      rows = hashed.rows;
      CLOUDRTT_CHECK(rows > 0, "paper day streamed no rows");
      if (paper_hash == 0) paper_hash = hashed.hash;
      CLOUDRTT_CHECK(hashed.hash == paper_hash,
                     "paper-scale dataset hash drifted across reps: ",
                     core::format_dataset_hash(hashed.hash), " vs ",
                     core::format_dataset_hash(paper_hash));
    }
    section.dataset_hash = core::format_dataset_hash(paper_hash);
    report.sections.push_back(std::move(section));
    std::cout << "  paper_day_stream: p50 "
              << util::format_double(report.sections.back().p50_ms(), 1)
              << " ms, hash " << report.sections.back().dataset_hash << "\n";
    std::error_code paper_cleanup;
    std::filesystem::remove_all(spill_dir, paper_cleanup);
  }

  report.peak_rss_bytes = obs::peak_rss_bytes();

  const std::string out_path =
      args.get("out").empty()
          ? "BENCH_" + std::to_string(report.bench_id) + ".json"
          : args.get("out");
  std::ofstream out{out_path};
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  report.write_json(out);

  util::TextTable table;
  table.set_header({"section", "p50", "min", "max"});
  for (const obs::BenchSection& section : report.sections) {
    table.add_row({section.name,
                   util::format_double(section.p50_ms(), 1) + " ms",
                   util::format_double(section.min_ms(), 1) + " ms",
                   util::format_double(section.max_ms(), 1) + " ms"});
  }
  std::cout << table.render() << "dataset hash " << report.dataset_hash
            << ", peak RSS " << report.peak_rss_bytes / (1024 * 1024)
            << " MiB\nreport written to " << out_path << " (git "
            << report.git_rev << ")\n";

  if (const std::string& trace_path = args.get("trace-out");
      !trace_path.empty()) {
    std::ofstream trace{trace_path};
    obs::TraceRecorder::global().write_json(trace);
    std::cout << "trace written to " << trace_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_suite(argc, argv);
  } catch (const util::ArgError& error) {
    // A malformed option value: one line, the parse-failure exit code.
    std::cerr << error.what() << "\n";
    return 1;
  }
}
