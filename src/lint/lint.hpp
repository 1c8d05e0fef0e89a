#pragma once
// cloudrtt-lint: project-specific static analysis for determinism, contract
// hygiene, and concurrency/hot-path discipline (see README "Static analysis
// & determinism").
//
// The simulator's headline guarantees — same seed => bit-identical dataset,
// checkpoint resume == uninterrupted run — only hold while no code path lets
// incidental runtime state (hash-map iteration order, wall clocks, libc
// rand()) leak into exported output. The parallel executor adds a second
// family of invariants: the world is frozen after construction, shared
// mutable state hides behind named mutexes, and the per-visit path allocates
// nothing. This library enforces both families as machine checks instead of
// review folklore:
//
//   unordered-iter   range-for over a std::unordered_{map,set} (declared in
//                    the scanned tree, including via alias or auto-bound
//                    function result). Iteration order of unordered
//                    containers is unspecified, and for pointer keys it
//                    varies run-to-run with ASLR.
//   nondeterminism   rand()/srand(), std::random_device, time()/clock(),
//                    std::chrono clocks, std:: engines (mt19937, ...)
//                    outside src/util/rng.* (the one sanctioned entropy
//                    source) and src/obs/ (wall-clock timing for telemetry
//                    is fine; it never feeds the dataset).
//   raw-assert       assert() in library code — vanishes under NDEBUG and
//                    carries no runtime context. Use CLOUDRTT_CHECK /
//                    CLOUDRTT_DCHECK from util/check.hpp.
//   header-hygiene   headers must contain #pragma once and must not contain
//                    `using namespace`.
//   mutable-member   `mutable` data members in headers. Lazy mutable caches
//                    behind const interfaces are hidden shared state — the
//                    exact pattern the parallel campaign executor cannot
//                    tolerate. Synchronization primitives (mutex, atomic,
//                    once_flag, condition_variable) are allowed; anything
//                    else needs a justified lint:allow naming its guard.
//   local-static     function-local `static` non-const objects in library
//                    code: initialization order and lifetime are process
//                    state, and mutable singletons are thread-hostile.
//                    `static const`/`constexpr`/`constinit` are fine.
//   guarded-by       a field annotated `// lint:guarded_by(mu)` accessed in
//                    a function body (header + sibling .cpp) outside a
//                    scope that locks `mu` (lock_guard/unique_lock/
//                    shared_lock/scoped_lock over it, or mu.lock()).
//                    Constructors/destructors of the owning type are exempt
//                    — no concurrent access can exist yet/any more.
//   frozen           a type annotated `// lint:frozen` (deeply immutable
//                    after construction) declaring a public non-const member
//                    function, or a const_cast anywhere in its header/.cpp
//                    pair.
//   hot-path-alloc   inside a `// lint:hot` function (or `lint:hot(file)`
//                    file): `new`, make_unique/make_shared, std::function,
//                    to_string, ostringstream, std::string/std::vector
//                    value declarations or temporaries, and operator[] on a
//                    map-typed symbol. Steer toward caller-owned scratch
//                    and string_view.
//   layering-dag     an `#include "module/..."` edge between src/ modules
//                    that points against the declared layer order
//                    (src/lint/layers.hpp) — the cycle class PR 5 broke by
//                    hand with cities.*.
//   allow-hygiene    a lint:allow with an empty justification, an unknown
//                    rule key, or no finding of that rule on its line or the
//                    line below (an orphan — the code it excused is gone).
//
// A finding is either fixed or suppressed line-by-line with a justified
// annotation, on its own line or on a comment-only line directly above:
//
//   // lint:allow(unordered-iter): sorted below
//   for (const auto& [asn, sites] : cache_) {
//
// A suppression without a `: justification` does NOT suppress — and is
// itself an allow-hygiene finding.
//
// The scanner is token-aware, not a parser: comments, string literals
// (including raw strings), and char literals never produce findings, and
// type knowledge comes from a cross-file symbol index (pass 1), so members
// declared unordered or guarded in a header are recognised when touched in a
// .cpp.

#include <array>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace cloudrtt::lint {

enum class Rule {
  UnorderedIter,
  Nondeterminism,
  RawAssert,
  HeaderHygiene,
  MutableMember,
  LocalStatic,
  GuardedBy,
  Frozen,
  HotPathAlloc,
  LayeringDag,
  AllowHygiene,
};

inline constexpr std::size_t kRuleCount = 11;

/// Every rule in enum (and report) order; --list-rules and the report
/// writers iterate this.
inline constexpr std::array<Rule, kRuleCount> kAllRules = {
    Rule::UnorderedIter, Rule::Nondeterminism, Rule::RawAssert,
    Rule::HeaderHygiene, Rule::MutableMember,  Rule::LocalStatic,
    Rule::GuardedBy,     Rule::Frozen,         Rule::HotPathAlloc,
    Rule::LayeringDag,   Rule::AllowHygiene,
};

/// Stable key used in suppressions, SARIF output and the summary table.
[[nodiscard]] std::string_view rule_key(Rule rule);
/// One-line human description for the summary table and --list-rules.
[[nodiscard]] std::string_view rule_summary(Rule rule);

struct Finding {
  std::string file;   ///< path as handed to add()
  std::size_t line{}; ///< 1-based
  Rule rule{};
  std::string message;
  std::string snippet;  ///< trimmed offending source line
  bool suppressed = false;
  std::string justification;  ///< text after "lint:allow(<rule>):"
};

/// Which rules apply to a given path. The exemptions are fixed: outside
/// them a finding is fixed or justified inline, never configured away.
/// Paths are matched on '/'-separated suffix-normalised form, so both
/// "src/obs/log.cpp" and "/abs/repo/src/obs/log.cpp" hit the "src/obs/"
/// exemption.
struct LintOptions {
  /// Prefixes where `nondeterminism` does not apply (sanctioned entropy /
  /// telemetry clocks).
  static constexpr std::array<std::string_view, 2> kNondeterminismExempt{
      "src/util/rng.", "src/obs/"};
  /// Prefixes where `raw-assert` does not apply (tests may use assert and
  /// the gtest macros freely).
  static constexpr std::array<std::string_view, 1> kRawAssertExempt{
      "tests/"};
  /// Prefixes where `mutable-member` does not apply (test fixtures may fake
  /// whatever state they like).
  static constexpr std::array<std::string_view, 1> kMutableMemberExempt{
      "tests/"};
  /// Prefixes where `local-static` does not apply: binaries and benchmarks
  /// are single-threaded drivers, src/obs hosts the sanctioned telemetry
  /// singletons (whose registries are internally synchronized), and the rng
  /// module owns the one sanctioned entropy source.
  static constexpr std::array<std::string_view, 6> kLocalStaticExempt{
      "tests/", "bench/", "examples/", "tools/", "src/obs/", "src/util/rng."};
  /// Prefixes where `hot-path-alloc` does not apply even to lint:hot-marked
  /// code: figure generators and examples trade allocations for clarity.
  static constexpr std::array<std::string_view, 2> kHotAllocExempt{
      "bench/", "examples/"};
  /// Prefixes whose comments are NOT mined for annotation markers and that
  /// `allow-hygiene` skips: the linter's own sources document the
  /// annotation grammar, which would otherwise register as orphan allows.
  static constexpr std::array<std::string_view, 1> kAnnotationExempt{
      "src/lint/"};

  [[nodiscard]] static bool applies(Rule rule, std::string_view path);
  /// True when `path`'s annotation markers should be harvested.
  [[nodiscard]] static bool harvest_markers(std::string_view path);
};

/// Two-pass linter: add() every file first (pass 1 builds the project-wide
/// symbol index — unordered symbols, guarded fields, frozen types, hot
/// regions, include edges, allow uses), then run() scans and returns
/// findings from every rule family.
class Linter {
 public:
  Linter();
  ~Linter();
  Linter(const Linter&) = delete;
  Linter& operator=(const Linter&) = delete;

  /// Register a source file. `path` is used for reporting and rule scoping;
  /// `content` is the full file text.
  void add(std::string path, std::string content);

  /// Scan every added file. Findings are ordered by (file, line, rule).
  [[nodiscard]] std::vector<Finding> run();

  /// Symbols the harvest pass classified as unordered containers (variables,
  /// members, aliases, and functions returning unordered types). Exposed for
  /// tests.
  [[nodiscard]] std::vector<std::string> unordered_symbols() const;

  /// Per-rule count of lint:allow uses across the scanned tree (justified
  /// or not; unknown rule keys count under allow-hygiene). Valid after
  /// run().
  [[nodiscard]] std::array<std::size_t, kRuleCount> allow_uses() const;

 private:
  struct Impl;
  Impl* impl_;
};

/// Per-rule totals plus the overall verdict.
struct Summary {
  struct PerRule {
    std::size_t total = 0;       ///< all findings, suppressed included
    std::size_t suppressed = 0;  ///< carried a justified lint:allow
    std::size_t allow_uses = 0;  ///< lint:allow(<rule>) uses in the tree
  };
  PerRule rules[kRuleCount];
  std::size_t files = 0;

  /// Findings not suppressed — what fails the run.
  [[nodiscard]] std::size_t unsuppressed_total() const;
  /// True when every finding is suppressed (lint exit code 0).
  [[nodiscard]] bool clean() const { return unsuppressed_total() == 0; }
};

[[nodiscard]] Summary summarize(
    const std::vector<Finding>& findings, std::size_t files,
    const std::array<std::size_t, kRuleCount>& allow_uses = {});

/// Human-readable report: one line per unsuppressed finding, then the
/// per-rule count table.
void write_text_report(std::ostream& out, const std::vector<Finding>& findings,
                       const Summary& summary, bool show_suppressed = false);

/// SARIF 2.1.0 report: one run, one result per unsuppressed finding, for
/// github/codeql-action/upload-sarif PR annotations.
void write_sarif_report(std::ostream& out,
                        const std::vector<Finding>& findings);

}  // namespace cloudrtt::lint
