// cloudrtt-lint — determinism, concurrency & hot-path static analysis.
//
//   cloudrtt-lint --root .                      # lint src/ tools/ tests/ ...
//   cloudrtt-lint --root . --sarif lint.sarif   # SARIF 2.1.0 for CI upload
//   cloudrtt-lint --root . --show-suppressed    # list justified findings too
//   cloudrtt-lint --list-rules                  # rule keys + summaries
//
// Exit code 0 when every finding is suppressed with a justified lint:allow,
// 1 when any active finding remains, 3 on usage/IO errors. The SARIF report
// is written before the nonzero exit so CI can upload it from a failing job.
// See src/lint/.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

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

}  // namespace

int main(int argc, char** argv) {
  cloudrtt::util::ArgParser args{
      "cloudrtt-lint",
      "determinism, concurrency & hot-path static analysis "
      "(--list-rules for the rule families)"};
  args.add_option("root", ".", "repository root to scan");
  args.add_option("sarif", "", "also write a SARIF 2.1.0 report to this file");
  args.add_flag("list-rules", "print rule keys + summaries and exit");
  args.add_flag("show-suppressed", "list suppressed findings in the report");
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

  const std::vector<cloudrtt::lint::Finding> findings = linter.run();
  const cloudrtt::lint::Summary summary = cloudrtt::lint::summarize(
      findings, files.size(), linter.allow_uses());
  cloudrtt::lint::write_text_report(std::cout, findings, summary,
                                    args.get_flag("show-suppressed"));

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
