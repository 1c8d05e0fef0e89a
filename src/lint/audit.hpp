#pragma once
// Pass 2 of the auditor (internal to the lint library): the rule families
// that need the merged project-wide symbol index — guarded-by, frozen,
// hot-path-alloc, layering-dag — plus allow-hygiene, which additionally
// needs every other family's findings to spot orphan suppressions.

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/index.hpp"
#include "lint/lint.hpp"
#include "lint/scrub.hpp"

namespace cloudrtt::lint {

/// One scanned file as pass 2 sees it: views into the Linter's storage.
struct AuditFile {
  std::string_view path;
  std::string_view original;
  const Scrubbed* scrubbed = nullptr;
  const FileShape* shape = nullptr;
  const FileIndex* index = nullptr;
};

/// report(file index, rule, 1-based line, message).
using AuditReport =
    std::function<void(std::size_t, Rule, std::size_t, std::string)>;

/// Run guarded-by, frozen, hot-path-alloc and layering-dag over the merged
/// index. `map_like` is the cross-file set of map-typed symbols feeding the
/// hot-path operator[] check.
void run_audit(const std::vector<AuditFile>& files,
               const std::set<std::string>& map_like,
               const AuditReport& report);

/// Run allow-hygiene: empty justifications, unknown rule keys, and orphan
/// allows (a justified allow with no finding of its rule on its own line or
/// the line below). `findings` must already hold every other family's
/// findings, suppressed included.
void run_allow_hygiene(const std::vector<AuditFile>& files,
                       const std::vector<Finding>& findings,
                       const AuditReport& report);

/// Rule for a stable key ("unordered-iter" -> Rule::UnorderedIter); false
/// when the key names no rule.
[[nodiscard]] bool rule_from_key(std::string_view key, Rule& out);

}  // namespace cloudrtt::lint
