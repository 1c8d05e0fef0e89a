#include "obs/bench_report.hpp"

#include <cstdlib>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <utility>

#include "util/json.hpp"
#include "util/json_value.hpp"
#include "util/text.hpp"

namespace cloudrtt::obs {

namespace {

[[nodiscard]] double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

}  // namespace

double BenchSection::p50_ms() const { return median(wall_ms); }

double BenchSection::min_ms() const {
  return wall_ms.empty() ? 0.0
                         : *std::min_element(wall_ms.begin(), wall_ms.end());
}

double BenchSection::max_ms() const {
  return wall_ms.empty() ? 0.0
                         : *std::max_element(wall_ms.begin(), wall_ms.end());
}

double BenchSection::mean_ms() const {
  if (wall_ms.empty()) return 0.0;
  double sum = 0.0;
  for (const double sample : wall_ms) sum += sample;
  return sum / static_cast<double>(wall_ms.size());
}

const BenchSection* BenchReport::section(std::string_view name) const {
  for (const BenchSection& entry : sections) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

void BenchReport::write_json(std::ostream& out) const {
  util::JsonWriter json{out};
  json.begin_object();
  json.field("schema", std::string{kSchemaName} + "/" +
                           std::to_string(schema_version));
  json.field("bench_id", bench_id);
  json.field("git_rev", git_rev);
  json.key("scale");
  json.begin_object();
  json.field("probes", static_cast<std::uint64_t>(probes));
  json.field("daily_budget", static_cast<std::uint64_t>(daily_budget));
  json.field("days", static_cast<std::uint64_t>(days));
  json.field("seed", seed);
  json.field("repetitions", static_cast<std::uint64_t>(repetitions));
  json.end_object();
  json.field("dataset_hash", dataset_hash);
  json.field("peak_rss_bytes", peak_rss_bytes);
  json.key("sections");
  json.begin_array();
  for (const BenchSection& entry : sections) {
    json.begin_object();
    json.field("name", entry.name);
    if (entry.threads > 0) json.field("threads", entry.threads);
    json.key("wall_ms");
    json.begin_array();
    for (const double sample : entry.wall_ms) json.value(sample);
    json.end_array();
    json.field("p50_ms", entry.p50_ms());
    json.field("mean_ms", entry.mean_ms());
    json.field("min_ms", entry.min_ms());
    json.field("max_ms", entry.max_ms());
    if (!entry.dataset_hash.empty()) {
      json.field("dataset_hash", entry.dataset_hash);
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
}

std::optional<BenchReport> BenchReport::parse(std::string_view text,
                                              std::string* error) {
  const auto fail = [&](std::string_view why) -> std::optional<BenchReport> {
    if (error != nullptr) *error = std::string{why};
    return std::nullopt;
  };
  std::string parse_error;
  const std::optional<util::JsonValue> root =
      util::JsonValue::parse(text, &parse_error);
  if (!root) return fail("invalid JSON: " + parse_error);
  if (!root->is_object()) return fail("bench report must be a JSON object");

  BenchReport report;
  const std::string schema = root->string_at("schema");
  const std::string prefix = std::string{kSchemaName} + "/";
  if (schema.rfind(prefix, 0) != 0) {
    return fail("unrecognized schema '" + schema + "'");
  }
  report.schema_version = std::atoi(schema.c_str() + prefix.size());
  if (report.schema_version < 1 || report.schema_version > kSchemaVersion) {
    return fail("unsupported schema version '" + schema + "'");
  }
  report.bench_id = static_cast<int>(root->number_at("bench_id", 0));
  report.git_rev = root->string_at("git_rev", "unknown");
  report.dataset_hash = root->string_at("dataset_hash");
  report.peak_rss_bytes =
      static_cast<std::uint64_t>(root->number_at("peak_rss_bytes", 0));
  const util::JsonValue* scale = root->find("scale");
  if (scale == nullptr || !scale->is_object()) {
    return fail("missing 'scale' object");
  }
  report.probes = static_cast<std::size_t>(scale->number_at("probes", 0));
  report.daily_budget =
      static_cast<std::size_t>(scale->number_at("daily_budget", 0));
  report.days = static_cast<std::uint32_t>(scale->number_at("days", 0));
  report.seed = static_cast<std::uint64_t>(scale->number_at("seed", 0));
  report.repetitions =
      static_cast<unsigned>(scale->number_at("repetitions", 0));

  const util::JsonValue* sections = root->find("sections");
  if (sections == nullptr || !sections->is_array()) {
    return fail("missing 'sections' array");
  }
  for (const util::JsonValue& entry : sections->items()) {
    if (!entry.is_object()) return fail("section entries must be objects");
    BenchSection section;
    section.name = entry.string_at("name");
    if (section.name.empty()) return fail("section without a name");
    section.threads = static_cast<int>(entry.number_at("threads", 0));
    section.dataset_hash = entry.string_at("dataset_hash");
    const util::JsonValue* samples = entry.find("wall_ms");
    if (samples == nullptr || !samples->is_array()) {
      return fail("section '" + section.name + "' lacks wall_ms samples");
    }
    for (const util::JsonValue& sample : samples->items()) {
      if (!sample.is_number()) {
        return fail("section '" + section.name + "' has non-numeric sample");
      }
      section.wall_ms.push_back(sample.as_number());
    }
    report.sections.push_back(std::move(section));
  }
  return report;
}

bool BenchReport::comparable_with(const BenchReport& other) const {
  return probes == other.probes && daily_budget == other.daily_budget &&
         days == other.days && seed == other.seed;
}

bool CompareResult::wall_clock_regressed() const {
  return std::any_of(lines.begin(), lines.end(),
                     [](const Line& line) { return line.regression; });
}

CompareResult compare_reports(const BenchReport& baseline,
                              const BenchReport& candidate,
                              const CompareOptions& options) {
  CompareResult result;
  result.scales_comparable = baseline.comparable_with(candidate);
  for (const BenchSection& base : baseline.sections) {
    const BenchSection* cand = candidate.section(base.name);
    if (cand == nullptr) {
      result.missing_in_candidate.push_back(base.name);
      continue;
    }
    CompareResult::Line line;
    line.section = base.name;
    line.baseline_ms = base.p50_ms();
    line.candidate_ms = cand->p50_ms();
    line.delta_pct = line.baseline_ms > 0.0
                         ? (line.candidate_ms - line.baseline_ms) /
                               line.baseline_ms * 100.0
                         : 0.0;
    line.regression = line.delta_pct > options.max_regress_pct;
    result.lines.push_back(line);
    if (result.scales_comparable && !base.dataset_hash.empty() &&
        !cand->dataset_hash.empty() &&
        base.dataset_hash != cand->dataset_hash) {
      result.hash_drift = true;
    }
  }
  for (const BenchSection& cand : candidate.sections) {
    if (baseline.section(cand.name) == nullptr) {
      result.new_in_candidate.push_back(cand.name);
      // Candidate-only sections still get a table line — newly added
      // benchmarks must show up in the comparison, not vanish — but with no
      // baseline there is nothing to regress against.
      CompareResult::Line line;
      line.section = cand.name;
      line.candidate_ms = cand.p50_ms();
      line.is_new = true;
      result.lines.push_back(line);
    }
  }
  if (result.scales_comparable && !baseline.dataset_hash.empty() &&
      !candidate.dataset_hash.empty() &&
      baseline.dataset_hash != candidate.dataset_hash) {
    result.hash_drift = true;
  }
  return result;
}

void write_compare_text(std::ostream& out, const CompareResult& result,
                        const CompareOptions& options) {
  util::TextTable table;
  table.set_header({"section", "baseline p50", "candidate p50", "delta"});
  for (const CompareResult::Line& line : result.lines) {
    if (line.is_new) {
      table.add_row({line.section, "-",
                     util::format_double(line.candidate_ms, 2) + " ms",
                     "new"});
      continue;
    }
    // Built by appends: GCC 12 at -O3 flags `(... ? "+" : "") + std::string`
    // with -Wrestrict.
    std::string delta{line.delta_pct >= 0.0 ? "+" : ""};
    delta += util::format_double(line.delta_pct, 1);
    delta += '%';
    if (line.regression) delta += "  REGRESSION";
    table.add_row({line.section,
                   util::format_double(line.baseline_ms, 2) + " ms",
                   util::format_double(line.candidate_ms, 2) + " ms",
                   std::move(delta)});
  }
  out << table.render();
  for (const std::string& name : result.missing_in_candidate) {
    out << "missing in candidate: " << name << "\n";
  }
  if (!result.scales_comparable) {
    out << "note: scale knobs differ, dataset hashes not compared\n";
  } else if (result.hash_drift) {
    out << "DATASET-HASH DRIFT: same scale and seed produced different "
           "bits\n";
  } else {
    out << "dataset hashes match\n";
  }
  if (result.wall_clock_regressed()) {
    out << "wall-clock regression beyond "
        << util::format_double(options.max_regress_pct, 1) << "% threshold\n";
  }
}

}  // namespace cloudrtt::obs
