#pragma once
// BenchReport: the schema-versioned performance-trajectory record behind the
// committed BENCH_<n>.json files. One report = one run of the canonical
// suite in bench/perf_trajectory.cpp (world build, a paper-scale campaign
// day swept over thread counts, a store spill, export+hash), with
// wall-clock samples over repeated runs, the dataset hash at every thread
// count (identity asserted — the bench refuses to report a fast wrong
// number), the scale knobs, and the git revision.
//
// tools/bench_compare diffs two reports via compare_reports(): wall-clock
// sections match by name and fail on >threshold p50 regression; dataset
// hashes are compared only when both reports ran the same (probes, budget,
// days, seed) scale, and a mismatch there is never a warning.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cloudrtt::obs {

/// One timed section of the suite: repeated wall-clock samples plus
/// section-specific context (thread count, per-sweep dataset hash).
struct BenchSection {
  std::string name;
  std::vector<double> wall_ms;  ///< one sample per repetition
  int threads = 0;              ///< 0 = not a thread-sweep section
  std::string dataset_hash;     ///< empty when the section produces no dataset

  [[nodiscard]] double p50_ms() const;
  [[nodiscard]] double min_ms() const;
  [[nodiscard]] double max_ms() const;
  [[nodiscard]] double mean_ms() const;
};

struct BenchReport {
  /// Bumped on breaking layout changes; parse() refuses newer majors.
  static constexpr int kSchemaVersion = 1;
  static constexpr std::string_view kSchemaName = "cloudrtt-bench";

  int schema_version = kSchemaVersion;
  int bench_id = 0;      ///< the <n> in BENCH_<n>.json (PR number)
  std::string git_rev;   ///< HEAD at record time ("unknown" when detached)
  std::uint64_t seed = 0;
  std::size_t probes = 0;
  std::size_t daily_budget = 0;
  std::uint32_t days = 0;
  unsigned repetitions = 0;
  std::string dataset_hash;  ///< canonical (threads=1) campaign-day hash
  std::uint64_t peak_rss_bytes = 0;
  std::vector<BenchSection> sections;

  [[nodiscard]] const BenchSection* section(std::string_view name) const;

  /// Pretty-printed JSON document (stable field order, parse()-compatible).
  void write_json(std::ostream& out) const;

  /// Parse a document produced by write_json (or hand-edited within the
  /// schema). Returns nullopt and fills `error` on malformed/mismatched
  /// input.
  [[nodiscard]] static std::optional<BenchReport> parse(std::string_view text,
                                                        std::string* error);

  /// True when wall-clock and hash comparisons between the two reports are
  /// meaningful: same scale knobs and seed.
  [[nodiscard]] bool comparable_with(const BenchReport& other) const;
};

struct CompareOptions {
  /// Wall-clock regression threshold on section p50, in percent.
  double max_regress_pct = 10.0;
};

struct CompareResult {
  struct Line {
    std::string section;
    double baseline_ms = 0.0;
    double candidate_ms = 0.0;
    double delta_pct = 0.0;
    bool regression = false;
    /// Candidate-only section (a newly added benchmark): rendered with an
    /// empty baseline column and never counted as a regression.
    bool is_new = false;
  };
  std::vector<Line> lines;
  /// Sections present in only one report (renamed suite = not comparable).
  std::vector<std::string> missing_in_candidate;
  std::vector<std::string> new_in_candidate;
  bool scales_comparable = false;
  bool hash_drift = false;  ///< only ever true when scales_comparable
  [[nodiscard]] bool wall_clock_regressed() const;
};

[[nodiscard]] CompareResult compare_reports(const BenchReport& baseline,
                                            const BenchReport& candidate,
                                            const CompareOptions& options = {});

/// Human-readable comparison table + verdict lines.
void write_compare_text(std::ostream& out, const CompareResult& result,
                        const CompareOptions& options);

}  // namespace cloudrtt::obs
