// bench_compare — diff two BENCH_<n>.json performance-trajectory reports.
//
//   bench_compare <baseline.json> <candidate.json> [--max-regress-pct P]
//                 [--warn-only]
//
// Exit codes:
//   0  comparable, no regression (or regression suppressed by --warn-only)
//   1  wall-clock regression beyond the threshold
//   2  dataset-hash drift at identical scale — never suppressed: a faster
//      wrong dataset is not a win
//   3  unreadable or malformed report, or a malformed option value

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/bench_report.hpp"
#include "util/cli.hpp"

namespace {

using namespace cloudrtt;

[[nodiscard]] std::optional<obs::BenchReport> load_report(
    const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    std::cerr << "bench_compare: cannot open " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  std::optional<obs::BenchReport> report =
      obs::BenchReport::parse(text.str(), &error);
  if (!report) {
    std::cerr << "bench_compare: " << path << ": " << error << "\n";
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args{"bench_compare",
                       "compare two perf_trajectory bench reports"};
  args.add_positional("baseline",
                      "committed BENCH_<n>.json to compare against");
  args.add_positional("candidate", "freshly produced report");
  args.add_option("max-regress-pct", "10",
                  "fail when a section's p50 regresses beyond this percent");
  args.add_flag("warn-only", "report wall-clock regressions without failing "
                             "(dataset-hash drift still fails)");
  if (!args.parse(argc, argv)) return 3;

  obs::CompareOptions options;
  try {
    // 0 is a meaningful threshold — "any regression fails" — so only
    // negatives (and non-integers) are refused.
    options.max_regress_pct =
        static_cast<double>(args.get_int("max-regress-pct", 0));
  } catch (const util::ArgError& error) {
    std::cerr << "bench_compare: " << error.what() << "\n";
    return 3;
  }

  const auto baseline = load_report(args.get("baseline"));
  const auto candidate = load_report(args.get("candidate"));
  if (!baseline || !candidate) return 3;

  const obs::CompareResult result =
      obs::compare_reports(*baseline, *candidate, options);

  std::cout << "baseline:  bench " << baseline->bench_id << " @ "
            << baseline->git_rev << "\n"
            << "candidate: bench " << candidate->bench_id << " @ "
            << candidate->git_rev << "\n";
  obs::write_compare_text(std::cout, result, options);

  if (result.hash_drift) return 2;
  if (result.wall_clock_regressed() && !args.get_flag("warn-only")) return 1;
  return 0;
}
