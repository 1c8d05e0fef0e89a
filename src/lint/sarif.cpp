// SARIF 2.1.0 export: one run, one reportingDescriptor per rule, one result
// per unsuppressed finding. Each result carries a `cloudrttLint/v1` partial
// fingerprint over file, rule and snippet — no line number — so GitHub code
// scanning keeps tracking an alert while unrelated edits move it.

#include <charconv>
#include <cstdint>
#include <ostream>
#include <string>

#include "lint/lint.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace cloudrtt::lint {

namespace {

/// FNV-1a hex over file|rule|snippet.
[[nodiscard]] std::string finding_fingerprint(const Finding& finding) {
  std::string key{finding.file};
  key.push_back('|');
  key.append(rule_key(finding.rule));
  key.push_back('|');
  key.append(finding.snippet);
  const std::uint64_t hash = util::fnv1a(key);
  char buffer[17] = {};
  std::to_chars(buffer, buffer + 16, hash, 16);
  return std::string{buffer};
}

}  // namespace

void write_sarif_report(std::ostream& out,
                        const std::vector<Finding>& findings) {
  util::JsonWriter json{out};
  json.begin_object();
  json.field("version", "2.1.0");
  json.field("$schema",
             "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
             "Schemata/sarif-schema-2.1.0.json");
  json.key("runs");
  json.begin_array();
  json.begin_object();
  json.key("tool");
  json.begin_object();
  json.key("driver");
  json.begin_object();
  json.field("name", "cloudrtt-lint");
  json.field("informationUri",
             "https://github.com/cloudrtt/cloudrtt"
             "#static-analysis--determinism");
  json.key("rules");
  json.begin_array();
  for (const Rule rule : kAllRules) {
    json.begin_object();
    json.field("id", rule_key(rule));
    json.key("shortDescription");
    json.begin_object();
    json.field("text", rule_summary(rule));
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.end_object();
  json.key("results");
  json.begin_array();
  for (const Finding& finding : findings) {
    if (finding.suppressed) continue;
    json.begin_object();
    json.field("ruleId", rule_key(finding.rule));
    json.field("level", "error");
    json.key("message");
    json.begin_object();
    json.field("text", finding.message);
    json.end_object();
    json.key("locations");
    json.begin_array();
    json.begin_object();
    json.key("physicalLocation");
    json.begin_object();
    json.key("artifactLocation");
    json.begin_object();
    json.field("uri", finding.file);
    json.end_object();
    json.key("region");
    json.begin_object();
    json.field("startLine",
               static_cast<std::uint64_t>(
                   finding.line == 0 ? std::size_t{1} : finding.line));
    json.end_object();
    json.end_object();
    json.end_object();
    json.end_array();
    json.key("partialFingerprints");
    json.begin_object();
    json.field("cloudrttLint/v1", finding_fingerprint(finding));
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.end_array();
  json.end_object();
  out << '\n';
}

}  // namespace cloudrtt::lint
