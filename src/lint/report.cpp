#include <ostream>

#include "lint/lint.hpp"
#include "util/text.hpp"

namespace cloudrtt::lint {

void write_text_report(std::ostream& out, const std::vector<Finding>& findings,
                       const Summary& summary, bool show_suppressed) {
  for (const Finding& finding : findings) {
    if (finding.suppressed && !show_suppressed) continue;
    out << finding.file << ':' << finding.line << ": ["
        << rule_key(finding.rule) << "] "
        << (finding.suppressed ? "(suppressed) " : "") << finding.message
        << '\n';
    if (!finding.snippet.empty()) out << "    " << finding.snippet << '\n';
    if (finding.suppressed) {
      out << "    justification: " << finding.justification << '\n';
    }
  }

  util::TextTable table;
  table.set_header({"rule", "findings", "suppressed", "allows", "active"});
  for (const Rule rule : kAllRules) {
    const Summary::PerRule& row = summary.rules[static_cast<std::size_t>(rule)];
    table.add_row({std::string{rule_key(rule)}, std::to_string(row.total),
                   std::to_string(row.suppressed),
                   std::to_string(row.allow_uses),
                   std::to_string(row.total - row.suppressed)});
  }
  out << '\n' << table.render();
  out << summary.files << " files scanned, " << summary.unsuppressed_total()
      << " active finding(s)\n";
}

}  // namespace cloudrtt::lint
