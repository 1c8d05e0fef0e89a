// cloudrtt-lint — determinism, concurrency & hot-path static analysis.
//
//   cloudrtt-lint --root .                      # lint src/ tools/ tests/ ...
//   cloudrtt-lint --root . --json lint.json     # machine-readable findings
//   cloudrtt-lint --root . --sarif lint.sarif   # SARIF 2.1.0 for CI upload
//   cloudrtt-lint --root . --baseline lint-baseline.json
//   cloudrtt-lint --root . --write-baseline lint-baseline.json
//   cloudrtt-lint --list-rules                  # rule keys + summaries
//   cloudrtt-lint --root . --dump-symbols       # harvested unordered names
//
// Exit code 0 when every finding is suppressed or baselined, 1 when any
// active finding remains, 3 on usage/IO errors. The SARIF report is written
// before the nonzero exit so CI can upload it from a failing job. See
// src/lint/.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/baseline.hpp"
#include "lint/lint.hpp"
#include "util/cli.hpp"

namespace {

namespace fs = std::filesystem;

constexpr int kExitClean = 0;
constexpr int kExitFindings = 1;
constexpr int kExitUsage = 3;

/// The directories of the repository the lint walks, in scan order.
constexpr std::string_view kRoots[] = {"src", "tools", "tests", "bench",
                                       "examples"};

[[nodiscard]] bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

[[nodiscard]] bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  std::ostringstream content;
  content << in.rdbuf();
  out = content.str();
  return true;
}

[[nodiscard]] bool write_file(const std::string& path,
                              const std::string& content) {
  std::ofstream out{path, std::ios::binary};
  if (!out) return false;
  out << content;
  return bool{out};
}

}  // namespace

int main(int argc, char** argv) {
  cloudrtt::util::ArgParser args{
      "cloudrtt-lint",
      "determinism, concurrency & hot-path static analysis "
      "(--list-rules for the rule families)"};
  args.add_option("root", ".", "repository root to scan");
  args.add_option("json", "", "also write the findings as JSON to this file");
  args.add_option("sarif", "", "also write a SARIF 2.1.0 report to this file");
  args.add_option("baseline", "",
                  "checked-in baseline file; matched findings don't fail");
  args.add_option("write-baseline", "",
                  "write the current unsuppressed findings as a baseline "
                  "and exit 0");
  args.add_flag("list-rules", "print rule keys + summaries and exit");
  args.add_flag("show-suppressed", "list suppressed findings in the report");
  args.add_flag("dump-symbols", "print harvested unordered symbols and exit");
  if (!args.parse(argc, argv)) return kExitUsage;

  if (args.get_flag("list-rules")) {
    for (const cloudrtt::lint::Rule rule : cloudrtt::lint::kAllRules) {
      std::cout << cloudrtt::lint::rule_key(rule) << "\n    "
                << cloudrtt::lint::rule_summary(rule) << "\n";
    }
    return kExitClean;
  }

  const fs::path root{args.get("root")};
  // Deterministic scan order: collect, then sort by generic path string.
  std::vector<fs::path> files;
  for (const std::string_view dir : kRoots) {
    const fs::path base = root / dir;
    std::error_code ec;
    if (!fs::exists(base, ec)) continue;
    for (fs::recursive_directory_iterator it{base, ec}, end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_regular_file() && lintable(it->path())) {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cerr << "cloudrtt-lint: nothing to scan under " << root << "\n";
    return kExitUsage;
  }

  cloudrtt::lint::Linter linter;
  for (const fs::path& file : files) {
    std::string content;
    if (!read_file(file, content)) {
      std::cerr << "cloudrtt-lint: cannot read " << file << "\n";
      return kExitUsage;
    }
    linter.add(fs::relative(file, root).generic_string(),
               std::move(content));
  }

  if (args.get_flag("dump-symbols")) {
    (void)linter.run();
    // lint:allow(unordered-iter): returns a sorted std::vector
    for (const std::string& symbol : linter.unordered_symbols()) {
      std::cout << symbol << "\n";
    }
    return kExitClean;
  }

  std::vector<cloudrtt::lint::Finding> findings = linter.run();

  if (const std::string out_path = args.get("write-baseline");
      !out_path.empty()) {
    if (!write_file(out_path,
                    cloudrtt::lint::write_baseline_json(findings))) {
      std::cerr << "cloudrtt-lint: cannot write baseline " << out_path
                << "\n";
      return kExitUsage;
    }
    std::size_t parked = 0;
    for (const cloudrtt::lint::Finding& finding : findings) {
      if (!finding.suppressed) ++parked;
    }
    std::cout << "cloudrtt-lint: wrote " << parked << " baseline entr"
              << (parked == 1 ? "y" : "ies") << " to " << out_path << "\n";
    return kExitClean;
  }

  if (const std::string baseline_path = args.get("baseline");
      !baseline_path.empty()) {
    std::string text;
    cloudrtt::lint::Baseline baseline;
    if (!read_file(baseline_path, text) ||
        !cloudrtt::lint::parse_baseline_json(text, baseline)) {
      std::cerr << "cloudrtt-lint: cannot parse baseline " << baseline_path
                << "\n";
      return kExitUsage;
    }
    for (const std::string& warning :
         cloudrtt::lint::apply_baseline(baseline, findings)) {
      std::cerr << "cloudrtt-lint: " << warning << "\n";
    }
  }

  const cloudrtt::lint::Summary summary = cloudrtt::lint::summarize(
      findings, files.size(), linter.allow_uses());
  cloudrtt::lint::write_text_report(std::cout, findings, summary,
                                    args.get_flag("show-suppressed"));

  if (const std::string& json_path = args.get("json"); !json_path.empty()) {
    std::ofstream out{json_path};
    if (!out) {
      std::cerr << "cloudrtt-lint: cannot write " << json_path << "\n";
      return kExitUsage;
    }
    cloudrtt::lint::write_json_report(out, findings, summary);
  }
  if (const std::string& sarif_path = args.get("sarif");
      !sarif_path.empty()) {
    std::ofstream out{sarif_path};
    if (!out) {
      std::cerr << "cloudrtt-lint: cannot write " << sarif_path << "\n";
      return kExitUsage;
    }
    cloudrtt::lint::write_sarif_report(out, findings);
  }
  return summary.clean() ? kExitClean : kExitFindings;
}
