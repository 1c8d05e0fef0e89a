// cloudrtt-lint unit tests: every rule against known-bad and known-clean
// fixtures, the suppression contract (justified allow suppresses, bare allow
// does not), the cross-file symbol harvest, and the text and SARIF reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace cloudrtt::lint {
namespace {

[[nodiscard]] std::vector<Finding> lint_one(std::string path,
                                            std::string content) {
  Linter linter;
  linter.add(std::move(path), std::move(content));
  return linter.run();
}

[[nodiscard]] std::size_t count_rule(const std::vector<Finding>& findings,
                                     Rule rule, bool suppressed_too = true) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [&](const Finding& f) {
        return f.rule == rule && (suppressed_too || !f.suppressed);
      }));
}

// ---------------------------------------------------------------------------
// R1: unordered-iter

TEST(LintUnorderedIter, FlagsRangeForOverUnorderedMap) {
  const auto findings = lint_one("src/x.cpp", R"cpp(
#include <unordered_map>
void f() {
  std::unordered_map<int, int> table;
  for (const auto& [k, v] : table) { (void)k; (void)v; }
}
)cpp");
  ASSERT_EQ(count_rule(findings, Rule::UnorderedIter), 1u);
  EXPECT_EQ(findings[0].line, 5u);
  EXPECT_FALSE(findings[0].suppressed);
}

TEST(LintUnorderedIter, CleanOnOrderedContainers) {
  const auto findings = lint_one("src/x.cpp", R"cpp(
#include <map>
#include <vector>
void f() {
  std::map<int, int> table;
  std::vector<int> list;
  for (const auto& [k, v] : table) { (void)k; (void)v; }
  for (int x : list) { (void)x; }
}
)cpp");
  EXPECT_TRUE(findings.empty());
}

TEST(LintUnorderedIter, HarvestRecognisesMemberDeclaredInHeader) {
  Linter linter;
  linter.add("src/t.hpp", R"cpp(#pragma once
#include <unordered_map>
struct Cache {
  std::unordered_map<int, int> entries_;
};
)cpp");
  linter.add("src/t.cpp", R"cpp(
#include "t.hpp"
int total(const Cache& cache) {
  int sum = 0;
  for (const auto& [k, v] : cache.entries_) sum += v;
  return sum;
}
)cpp");
  const auto findings = linter.run();
  ASSERT_EQ(count_rule(findings, Rule::UnorderedIter), 1u);
  EXPECT_EQ(findings[0].file, "src/t.cpp");
  const auto symbols = linter.unordered_symbols();
  EXPECT_NE(std::find(symbols.begin(), symbols.end(), "entries_"),
            symbols.end());
}

TEST(LintUnorderedIter, HarvestFollowsAliasAndAutoBoundResult) {
  Linter linter;
  linter.add("src/a.hpp", R"cpp(#pragma once
#include <unordered_set>
using IdSet = std::unordered_set<int>;
IdSet collect_ids();
)cpp");
  linter.add("src/a.cpp", R"cpp(
#include "a.hpp"
void g() {
  IdSet local;
  for (int id : local) { (void)id; }
  auto harvested = collect_ids();
  for (int id : harvested) { (void)id; }
}
)cpp");
  const auto findings = linter.run();
  EXPECT_EQ(count_rule(findings, Rule::UnorderedIter), 2u);
}

TEST(LintUnorderedIter, IgnoresMatchesInCommentsAndStrings) {
  const auto findings = lint_one("src/x.cpp", R"cpp(
// for (auto& x : some_unordered_map) — prose, not code
const char* kDoc = "for (auto& x : unordered_thing)";
)cpp");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// Suppressions

TEST(LintSuppression, JustifiedAllowOnSameLineSuppresses) {
  const auto findings = lint_one("src/x.cpp",
      "#include <unordered_map>\n"
      "void f() {\n"
      "  std::unordered_map<int, int> t;\n"
      "  for (const auto& [k, v] : t) { (void)k; (void)v; }  "
      "// lint:allow(unordered-iter): sorted downstream\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);
  EXPECT_EQ(findings[0].justification, "sorted downstream");
  EXPECT_TRUE(summarize(findings, 1).clean());
}

TEST(LintSuppression, JustifiedAllowOnLineAboveSuppresses) {
  const auto findings = lint_one("src/x.cpp",
      "#include <unordered_map>\n"
      "void f() {\n"
      "  std::unordered_map<int, int> t;\n"
      "  // lint:allow(unordered-iter): order never escapes this function\n"
      "  for (const auto& [k, v] : t) { (void)k; (void)v; }\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);
}

TEST(LintSuppression, AllowWithoutJustificationDoesNotSuppress) {
  const auto findings = lint_one("src/x.cpp",
      "#include <unordered_map>\n"
      "void f() {\n"
      "  std::unordered_map<int, int> t;\n"
      "  for (const auto& [k, v] : t) { (void)k; (void)v; }  "
      "// lint:allow(unordered-iter)\n"
      "}\n");
  // The unsuppressed finding plus an allow-hygiene finding for the bare
  // allow itself.
  ASSERT_EQ(findings.size(), 2u);
  ASSERT_EQ(count_rule(findings, Rule::UnorderedIter), 1u);
  EXPECT_EQ(count_rule(findings, Rule::AllowHygiene), 1u);
  EXPECT_FALSE(findings[0].suppressed);
  EXPECT_FALSE(summarize(findings, 1).clean());
  EXPECT_NE(findings[0].message.find("ignored"), std::string::npos);
}

TEST(LintSuppression, AllowForTheWrongRuleDoesNotSuppress) {
  const auto findings = lint_one("src/x.cpp",
      "#include <unordered_map>\n"
      "void f() {\n"
      "  std::unordered_map<int, int> t;\n"
      "  for (const auto& [k, v] : t) { (void)k; (void)v; }  "
      "// lint:allow(raw-assert): wrong key\n"
      "}\n");
  // The unsuppressed finding plus an allow-hygiene orphan for the
  // wrong-rule allow.
  ASSERT_EQ(findings.size(), 2u);
  ASSERT_EQ(count_rule(findings, Rule::UnorderedIter), 1u);
  EXPECT_EQ(count_rule(findings, Rule::AllowHygiene), 1u);
  EXPECT_FALSE(findings[0].suppressed);
}

// ---------------------------------------------------------------------------
// R2: nondeterminism

TEST(LintNondeterminism, FlagsBannedEntropyAndClocks) {
  const auto findings = lint_one("src/x.cpp", R"cpp(
#include <chrono>
#include <cstdlib>
#include <random>
int f() {
  std::random_device device;
  std::mt19937 engine{device()};
  const auto t0 = std::chrono::steady_clock::now();
  (void)t0; (void)engine;
  return rand();
}
)cpp");
  EXPECT_GE(count_rule(findings, Rule::Nondeterminism), 4u);
}

TEST(LintNondeterminism, ExemptInRngAndObs) {
  for (const char* path : {"src/util/rng.cpp", "src/obs/trace.cpp"}) {
    const auto findings = lint_one(path, R"cpp(
#include <chrono>
#include <random>
auto now() { return std::chrono::steady_clock::now(); }
std::random_device& device() { static std::random_device d; return d; }
)cpp");
    EXPECT_TRUE(findings.empty()) << path;
  }
}

TEST(LintNondeterminism, DoesNotFlagIdentifiersContainingTime) {
  const auto findings = lint_one("src/x.cpp", R"cpp(
int runtime_ms = 0;
int lifetime(int timeout) { return runtime_ms + timeout; }
)cpp");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// R3: raw-assert

TEST(LintRawAssert, FlagsAssertInLibraryCode) {
  const auto findings = lint_one("src/x.cpp", R"cpp(
#include <cassert>
void f(int x) { assert(x > 0); }
)cpp");
  ASSERT_EQ(count_rule(findings, Rule::RawAssert), 1u);
  EXPECT_NE(findings[0].message.find("CLOUDRTT_CHECK"), std::string::npos);
}

TEST(LintRawAssert, TestsMayAssertFreely) {
  const auto findings = lint_one("tests/x_test.cpp", R"cpp(
#include <cassert>
void f(int x) { assert(x > 0); }
)cpp");
  EXPECT_TRUE(findings.empty());
}

TEST(LintRawAssert, DoesNotFlagStaticAssertOrCheckMacros) {
  const auto findings = lint_one("src/x.cpp", R"cpp(
static_assert(sizeof(int) >= 4);
#define CLOUDRTT_CHECK(c, ...) void(0)
void f(int x) { CLOUDRTT_CHECK(x > 0, "x=", x); }
)cpp");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// R4: header-hygiene

TEST(LintHeaderHygiene, FlagsMissingPragmaOnceAndUsingNamespace) {
  const auto findings = lint_one("src/x.hpp",
      "#include <vector>\n"
      "using namespace std;\n");
  EXPECT_EQ(count_rule(findings, Rule::HeaderHygiene), 2u);
}

TEST(LintHeaderHygiene, CleanHeaderPasses) {
  const auto findings = lint_one("src/x.hpp",
      "#pragma once\n"
      "#include <vector>\n"
      "namespace cloudrtt { using Row = std::vector<double>; }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintHeaderHygiene, DoesNotApplyToSourceFiles) {
  const auto findings = lint_one("src/x.cpp", "using namespace std;\n");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// R5: mutable-member

TEST(LintMutableMember, FlagsMutableCacheInHeader) {
  const auto findings = lint_one("src/x.hpp", R"cpp(#pragma once
#include <unordered_map>
class Cache {
 public:
  int get(int key) const;
 private:
  mutable std::unordered_map<int, int> cache_;
};
)cpp");
  ASSERT_EQ(count_rule(findings, Rule::MutableMember), 1u);
  EXPECT_EQ(findings[0].line, 7u);
  EXPECT_FALSE(findings[0].suppressed);
}

TEST(LintMutableMember, SynchronizationPrimitivesAreAllowed) {
  const auto findings = lint_one("src/x.hpp", R"cpp(#pragma once
#include <atomic>
#include <condition_variable>
#include <mutex>
class Guarded {
  mutable std::mutex mutex_;
  mutable std::shared_mutex rw_mutex_;
  mutable std::atomic<int> hits_{0};
  mutable std::once_flag once_;
  mutable std::condition_variable cv_;
};
)cpp");
  EXPECT_EQ(count_rule(findings, Rule::MutableMember), 0u);
}

TEST(LintMutableMember, LambdaMutableQualifierIsNotAMember) {
  const auto findings = lint_one("src/x.hpp", R"cpp(#pragma once
inline int count_up() {
  int n = 0;
  auto tick = [n]() mutable { return ++n; };
  auto typed = [n]() mutable -> int { return ++n; };
  auto safe = [n]() mutable noexcept { return ++n; };
  return tick() + typed() + safe();
}
)cpp");
  EXPECT_EQ(count_rule(findings, Rule::MutableMember), 0u);
}

TEST(LintMutableMember, DoesNotApplyToSourceFilesOrTests) {
  const std::string body = R"cpp(
class Cache {
  mutable int last_ = 0;
};
)cpp";
  EXPECT_EQ(count_rule(lint_one("src/x.cpp", body), Rule::MutableMember), 0u);
  EXPECT_EQ(count_rule(lint_one("tests/x.hpp", "#pragma once\n" + body),
                       Rule::MutableMember),
            0u);
}

TEST(LintMutableMember, JustifiedAllowSuppresses) {
  const auto findings = lint_one("src/x.hpp", R"cpp(#pragma once
#include <unordered_map>
class Cache {
  // lint:allow(mutable-member): guarded by cache_mutex_
  mutable std::unordered_map<int, int> cache_;
};
)cpp");
  ASSERT_EQ(count_rule(findings, Rule::MutableMember), 1u);
  EXPECT_TRUE(findings[0].suppressed);
}

// ---------------------------------------------------------------------------
// R6: local-static

TEST(LintLocalStatic, FlagsFunctionLocalStaticObject) {
  const auto findings = lint_one("src/x.cpp", R"cpp(
#include <vector>
const std::vector<int>& cached() {
  static std::vector<int> values{1, 2, 3};
  return values;
}
)cpp");
  ASSERT_EQ(count_rule(findings, Rule::LocalStatic), 1u);
  EXPECT_EQ(findings[0].line, 4u);
}

TEST(LintLocalStatic, ConstAndConstexprLocalsAreAllowed) {
  const auto findings = lint_one("src/x.cpp", R"cpp(
#include <array>
int pick(int i) {
  static const std::array<int, 3> table{1, 2, 3};
  static constexpr int kBase = 10;
  return kBase + table[static_cast<std::size_t>(i) % table.size()];
}
)cpp");
  EXPECT_EQ(count_rule(findings, Rule::LocalStatic), 0u);
}

TEST(LintLocalStatic, NamespaceAndClassScopeStaticsAreNotLocal) {
  const auto findings = lint_one("src/x.cpp", R"cpp(
static int file_counter = 0;
namespace detail {
static double weight = 1.0;
}
class Thing {
  static int instances_;
  static int count() { return instances_; }
};
void touch() { (void)file_counter; }
)cpp");
  EXPECT_EQ(count_rule(findings, Rule::LocalStatic), 0u);
}

TEST(LintLocalStatic, FlagsStaticInsideControlFlowBlocks) {
  const auto findings = lint_one("src/x.cpp", R"cpp(
int bump(bool grow) {
  if (grow) {
    static int counter = 0;
    return ++counter;
  }
  return 0;
}
)cpp");
  EXPECT_EQ(count_rule(findings, Rule::LocalStatic), 1u);
}

TEST(LintLocalStatic, ExemptPathsAndSuppressionsApply) {
  const std::string body = R"cpp(
int serial() {
  static int next = 0;
  return ++next;
}
)cpp";
  EXPECT_EQ(count_rule(lint_one("tests/x.cpp", body), Rule::LocalStatic), 0u);
  EXPECT_EQ(count_rule(lint_one("bench/x.cpp", body), Rule::LocalStatic), 0u);
  EXPECT_EQ(count_rule(lint_one("tools/x.cpp", body), Rule::LocalStatic), 0u);
  EXPECT_EQ(count_rule(lint_one("src/obs/x.cpp", body), Rule::LocalStatic), 0u);
  const auto findings = lint_one("src/x.cpp", R"cpp(
int serial() {
  // lint:allow(local-static): single-threaded tool path
  static int next = 0;
  return ++next;
}
)cpp");
  ASSERT_EQ(count_rule(findings, Rule::LocalStatic), 1u);
  EXPECT_TRUE(findings[0].suppressed);
}

// ---------------------------------------------------------------------------
// Summary and reports

TEST(LintReport, SummaryCountsPerRule) {
  Linter linter;
  linter.add("src/bad.hpp", "using namespace std;\n");
  linter.add("src/bad.cpp",
             "#include <cassert>\nvoid f(int x) { assert(x > 0); }\n");
  const auto findings = linter.run();
  const Summary summary = summarize(findings, 2);
  EXPECT_EQ(summary.files, 2u);
  EXPECT_EQ(summary.rules[static_cast<std::size_t>(Rule::HeaderHygiene)].total,
            2u);  // missing pragma once + using namespace
  EXPECT_EQ(summary.rules[static_cast<std::size_t>(Rule::RawAssert)].total, 1u);
  EXPECT_EQ(summary.unsuppressed_total(), 3u);
  EXPECT_FALSE(summary.clean());
}

TEST(LintReport, TextReportListsFindingsAndTable) {
  const auto findings = lint_one("src/x.cpp", R"cpp(
#include <cassert>
void f(int x) { assert(x > 0); }
)cpp");
  std::ostringstream out;
  write_text_report(out, findings, summarize(findings, 1));
  const std::string text = out.str();
  EXPECT_NE(text.find("src/x.cpp:3"), std::string::npos);
  EXPECT_NE(text.find("raw-assert"), std::string::npos);
  EXPECT_NE(text.find("1 active finding"), std::string::npos);
}

TEST(LintOptionsTest, PathMatchingIsSuffixNormalised) {
  const LintOptions options;
  EXPECT_FALSE(options.applies(Rule::Nondeterminism, "src/util/rng.cpp"));
  EXPECT_FALSE(
      options.applies(Rule::Nondeterminism, "/abs/repo/src/util/rng.cpp"));
  EXPECT_FALSE(options.applies(Rule::Nondeterminism, "src/obs/log.cpp"));
  EXPECT_TRUE(options.applies(Rule::Nondeterminism, "src/core/study.cpp"));
  EXPECT_FALSE(options.applies(Rule::RawAssert, "tests/util_test.cpp"));
  EXPECT_TRUE(options.applies(Rule::RawAssert, "src/util/stats.cpp"));
}

// ---------------------------------------------------------------------------
// R7: guarded-by

namespace {

constexpr std::string_view kGuardedHeader = R"cpp(#pragma once
#include <mutex>
struct Queue {
  std::mutex mutex_;
  // lint:guarded_by(mutex_)
  int depth_ = 0;
};
)cpp";

}  // namespace

TEST(LintGuardedBy, FlagsUnlockedAccessInStemPair) {
  Linter linter;
  linter.add("src/store/q.hpp", std::string{kGuardedHeader});
  linter.add("src/store/q.cpp", R"cpp(
#include "q.hpp"
void touch(Queue& q) {
  q.depth_ = 1;
}
)cpp");
  const auto findings = linter.run();
  ASSERT_EQ(count_rule(findings, Rule::GuardedBy), 1u);
  EXPECT_EQ(findings[0].file, "src/store/q.cpp");
  EXPECT_NE(findings[0].message.find("mutex_"), std::string::npos);
}

TEST(LintGuardedBy, CleanWhenLockIsHeld) {
  Linter linter;
  linter.add("src/store/q.hpp", std::string{kGuardedHeader});
  linter.add("src/store/q.cpp", R"cpp(
#include "q.hpp"
void touch(Queue& q) {
  const std::lock_guard<std::mutex> lock{q.mutex_};
  q.depth_ = 1;
}
int peek(Queue& q) {
  std::unique_lock<std::mutex> lock(q.mutex_);
  return q.depth_;
}
)cpp");
  EXPECT_EQ(count_rule(linter.run(), Rule::GuardedBy), 0u);
}

TEST(LintGuardedBy, ConstructorsAndJustifiedAllowsAreExempt) {
  Linter linter;
  linter.add("src/store/q.hpp", R"cpp(#pragma once
#include <mutex>
struct Queue {
  Queue() { depth_ = 0; }
  ~Queue() { depth_ = -1; }
  std::mutex mutex_;
  // lint:guarded_by(mutex_)
  int depth_ = 0;
};
)cpp");
  linter.add("src/store/q.cpp", R"cpp(
#include "q.hpp"
int racy_peek(const Queue& q) {
  // lint:allow(guarded-by): emptiness probe tolerates a stale read
  return q.depth_;
}
)cpp");
  const auto findings = linter.run();
  ASSERT_EQ(count_rule(findings, Rule::GuardedBy), 1u);
  EXPECT_TRUE(findings[0].suppressed);
}

// ---------------------------------------------------------------------------
// R8: frozen

TEST(LintFrozen, FlagsPublicNonConstMemberOfFrozenType) {
  const auto findings = lint_one("src/topology/t.hpp", R"cpp(#pragma once
// lint:frozen
class Table {
 public:
  Table() = default;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  void put(int key);
  [[nodiscard]] static int version();
  [[nodiscard]] int get(int key) const;
 private:
  void rebuild();
};
)cpp");
  ASSERT_EQ(count_rule(findings, Rule::Frozen), 1u);
  EXPECT_NE(findings[0].message.find("'put'"), std::string::npos);
}

TEST(LintFrozen, ConstMembersAndUnmarkedTypesAreClean) {
  const auto findings = lint_one("src/topology/t.hpp", R"cpp(#pragma once
// lint:frozen
class Table {
 public:
  [[nodiscard]] int get(int key) const;
};
class Builder {
 public:
  void put(int key);
};
)cpp");
  EXPECT_EQ(count_rule(findings, Rule::Frozen), 0u);
}

TEST(LintFrozen, ConstCastInStemPairDefeatsTheFreeze) {
  Linter linter;
  linter.add("src/topology/t.hpp", R"cpp(#pragma once
// lint:frozen
class Table {
 public:
  [[nodiscard]] int get(int key) const;
};
)cpp");
  linter.add("src/topology/t.cpp", R"cpp(
#include "t.hpp"
int sneak(const Table& table) {
  return const_cast<Table&>(table).get(0);
}
)cpp");
  const auto findings = linter.run();
  ASSERT_EQ(count_rule(findings, Rule::Frozen), 1u);
  EXPECT_EQ(findings[0].file, "src/topology/t.cpp");
  EXPECT_NE(findings[0].message.find("const_cast"), std::string::npos);
}

// ---------------------------------------------------------------------------
// R9: hot-path-alloc

TEST(LintHotPathAlloc, FlagsAllocationsOnlyInsideMarkedFunction) {
  const auto findings = lint_one("src/measure/h.cpp", R"cpp(
#include <string>
// lint:hot
int* build(int n) {
  std::string label = "hop";
  return new int[n];
}
int* cold(int n) {
  std::string label = "hop";
  return new int[n];
}
)cpp");
  EXPECT_EQ(count_rule(findings, Rule::HotPathAlloc), 2u);
  for (const Finding& finding : findings) {
    EXPECT_NE(finding.message.find("'build'"), std::string::npos);
  }
}

TEST(LintHotPathAlloc, FileMarkerCoversEveryFunction) {
  const auto findings = lint_one("src/measure/h.cpp", R"cpp(
// lint:hot(file)
#include <memory>
std::unique_ptr<int> a() { return std::make_unique<int>(1); }
std::unique_ptr<int> b() { return std::make_unique<int>(2); }
)cpp");
  EXPECT_EQ(count_rule(findings, Rule::HotPathAlloc), 2u);
}

TEST(LintHotPathAlloc, BenchIsExemptAndViewsAreClean) {
  const std::string body = R"cpp(
#include <string_view>
#include <span>
// lint:hot
std::string_view name(std::span<const char> raw) {
  std::string_view view{raw.data(), raw.size()};
  return view;
}
)cpp";
  EXPECT_EQ(count_rule(lint_one("src/measure/h.cpp", body),
                       Rule::HotPathAlloc),
            0u);
  const std::string alloc = R"cpp(
// lint:hot
int* build(int n) { return new int[n]; }
)cpp";
  EXPECT_EQ(count_rule(lint_one("bench/h.cpp", alloc), Rule::HotPathAlloc),
            0u);
  EXPECT_EQ(count_rule(lint_one("src/measure/h.cpp", alloc),
                       Rule::HotPathAlloc),
            1u);
}

// ---------------------------------------------------------------------------
// R10: layering-dag

TEST(LintLayeringDag, FlagsBackwardIncludeEdge) {
  const auto findings = lint_one("src/util/helper.cpp", R"cpp(
#include "measure/engine.hpp"
)cpp");
  ASSERT_EQ(count_rule(findings, Rule::LayeringDag), 1u);
  EXPECT_NE(findings[0].message.find("'util'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("'measure'"), std::string::npos);
}

TEST(LintLayeringDag, ForwardAndSameModuleEdgesAreClean) {
  Linter linter;
  linter.add("src/measure/engine.cpp", R"cpp(
#include "measure/engine.hpp"
#include "util/rng.hpp"
#include "routing/path_builder.hpp"
#include <vector>
)cpp");
  linter.add("tools/cli.cpp", R"cpp(
#include "util/rng.hpp"
#include "measure/engine.hpp"
)cpp");
  EXPECT_EQ(count_rule(linter.run(), Rule::LayeringDag), 0u);
}

// ---------------------------------------------------------------------------
// R11: allow-hygiene

TEST(LintAllowHygiene, FlagsUnjustifiedUnknownAndOrphanAllows) {
  const auto findings = lint_one("src/x.cpp", R"cpp(
#include <unordered_map>
void f() {
  std::unordered_map<int, int> t;
  for (const auto& kv : t) { (void)kv; }  // lint:allow(unordered-iter)
  int a = 0;  // lint:allow(made-up-rule): no such rule
  int b = 0;  // lint:allow(local-static): nothing to excuse here
  (void)a; (void)b;
}
)cpp");
  EXPECT_EQ(count_rule(findings, Rule::AllowHygiene), 3u);
  // The bare allow did not suppress the real finding either.
  EXPECT_EQ(count_rule(findings, Rule::UnorderedIter, false), 1u);
}

TEST(LintAllowHygiene, JustifiedAllowNextToItsFindingIsClean) {
  const auto findings = lint_one("src/x.cpp", R"cpp(
#include <unordered_map>
void f() {
  std::unordered_map<int, int> t;
  // lint:allow(unordered-iter): accumulation is order-independent
  for (const auto& [k, v] : t) { (void)k; (void)v; }
}
)cpp");
  EXPECT_EQ(count_rule(findings, Rule::AllowHygiene), 0u);
  ASSERT_EQ(count_rule(findings, Rule::UnorderedIter), 1u);
  EXPECT_TRUE(findings[0].suppressed);
}

// ---------------------------------------------------------------------------
// SARIF export

constexpr std::string_view kHotAllocFixture = R"cpp(
// lint:hot
int* build(int n) { return new int[n]; }
)cpp";

TEST(LintSarif, EmitsRulesResultsAndBaselineState) {
  const auto findings =
      lint_one("src/measure/h.cpp", std::string{kHotAllocFixture});
  ASSERT_EQ(findings.size(), 1u);
  std::ostringstream out;
  write_sarif_report(out, findings);
  const std::string sarif = out.str();
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"hot-path-alloc\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/measure/h.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("cloudrttLint/v1"), std::string::npos);
}

TEST(LintSarif, FingerprintIsStable) {
  // FNV-1a over "src/measure/h.cpp|hot-path-alloc|<snippet>": GitHub code
  // scanning matches alerts across runs by this value, so it must not move.
  const auto findings =
      lint_one("src/measure/h.cpp", std::string{kHotAllocFixture});
  ASSERT_EQ(findings.size(), 1u);
  std::ostringstream out;
  write_sarif_report(out, findings);
  EXPECT_NE(out.str().find("\"cloudrttLint/v1\": \"f57ae32e9770062e\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Allow-use accounting

TEST(LintAllowUses, SummaryCountsSuppressionsPerRule) {
  Linter linter;
  linter.add("src/x.cpp", R"cpp(
#include <unordered_map>
void f() {
  std::unordered_map<int, int> t;
  // lint:allow(unordered-iter): accumulation is order-independent
  for (const auto& [k, v] : t) { (void)k; (void)v; }
}
)cpp");
  const auto findings = linter.run();
  const auto uses = linter.allow_uses();
  EXPECT_EQ(uses[static_cast<std::size_t>(Rule::UnorderedIter)], 1u);
  const Summary summary = summarize(findings, 1, uses);
  EXPECT_EQ(
      summary.rules[static_cast<std::size_t>(Rule::UnorderedIter)].allow_uses,
      1u);
  EXPECT_TRUE(summary.clean());
}

}  // namespace
}  // namespace cloudrtt::lint
