#include "lint/lint.hpp"

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "lint/audit.hpp"
#include "lint/index.hpp"
#include "lint/scrub.hpp"

namespace cloudrtt::lint {

std::string_view rule_key(Rule rule) {
  switch (rule) {
    case Rule::UnorderedIter: return "unordered-iter";
    case Rule::Nondeterminism: return "nondeterminism";
    case Rule::RawAssert: return "raw-assert";
    case Rule::HeaderHygiene: return "header-hygiene";
    case Rule::MutableMember: return "mutable-member";
    case Rule::LocalStatic: return "local-static";
    case Rule::GuardedBy: return "guarded-by";
    case Rule::Frozen: return "frozen";
    case Rule::HotPathAlloc: return "hot-path-alloc";
    case Rule::LayeringDag: return "layering-dag";
    case Rule::AllowHygiene: return "allow-hygiene";
  }
  return "?";
}

std::string_view rule_summary(Rule rule) {
  switch (rule) {
    case Rule::UnorderedIter:
      return "range-for over an unordered container (iteration order leak)";
    case Rule::Nondeterminism:
      return "entropy/clock source outside util/rng and obs";
    case Rule::RawAssert:
      return "raw assert() in library code (use CLOUDRTT_CHECK/DCHECK)";
    case Rule::HeaderHygiene:
      return "header without #pragma once / with using namespace";
    case Rule::MutableMember:
      return "mutable member in a header (hidden shared state, thread-hostile)";
    case Rule::LocalStatic:
      return "function-local static non-const object in library code";
    case Rule::GuardedBy:
      return "lint:guarded_by field accessed outside a scope locking its "
             "mutex";
    case Rule::Frozen:
      return "lint:frozen type with a public non-const member function or "
             "const_cast";
    case Rule::HotPathAlloc:
      return "allocation or temporary in a lint:hot function (use caller "
             "scratch)";
    case Rule::LayeringDag:
      return "include edge against the src/ layer order (lint/layers.hpp)";
    case Rule::AllowHygiene:
      return "lint:allow without justification, with an unknown rule, or "
             "orphaned";
  }
  return "?";
}

bool rule_from_key(std::string_view key, Rule& out) {
  for (const Rule rule : kAllRules) {
    if (rule_key(rule) == key) {
      out = rule;
      return true;
    }
  }
  return false;
}

namespace {

[[nodiscard]] bool exempt(std::span<const std::string_view> prefixes,
                          std::string_view path) {
  return std::any_of(
      prefixes.begin(), prefixes.end(),
      [path](std::string_view prefix) { return path_matches(path, prefix); });
}

}  // namespace

bool LintOptions::applies(Rule rule, std::string_view path) {
  std::span<const std::string_view> prefixes;
  if (rule == Rule::Nondeterminism) prefixes = kNondeterminismExempt;
  if (rule == Rule::RawAssert) prefixes = kRawAssertExempt;
  if (rule == Rule::MutableMember) prefixes = kMutableMemberExempt;
  if (rule == Rule::LocalStatic) prefixes = kLocalStaticExempt;
  if (rule == Rule::HotPathAlloc) prefixes = kHotAllocExempt;
  if (rule == Rule::AllowHygiene) prefixes = kAnnotationExempt;
  return !exempt(prefixes, path);
}

bool LintOptions::harvest_markers(std::string_view path) {
  return !exempt(kAnnotationExempt, path);
}

// ---------------------------------------------------------------------------
// Linter

struct Linter::Impl {
  struct File {
    std::string path;
    std::string original;
    Scrubbed scrubbed;
    FileShape shape;
    FileIndex index;
  };

  std::vector<File> files;
  // std::set: the symbol tables themselves must never introduce iteration-
  // order nondeterminism into reports.
  std::set<std::string> unordered_vars;
  std::set<std::string> unordered_fns;
  std::set<std::string> unordered_aliases;
  std::set<std::string> map_like;

  void harvest(File& file);
  void harvest_alias_uses(const File& file);
  void check_file(const File& file, std::vector<Finding>& findings) const;
  void apply_suppressions(const File& file, Finding& finding) const;
};

Linter::Linter() : impl_(new Impl) {}

Linter::~Linter() { delete impl_; }

void Linter::add(std::string path, std::string content) {
  Impl::File file;
  file.path = normalise(path);
  file.scrubbed = scrub(content);
  file.shape = analyze_braces(file.scrubbed.code);
  file.original = std::move(content);
  index_annotations(file.path, file.original, file.scrubbed, file.shape,
                    LintOptions::harvest_markers(file.path), file.index);
  impl_->harvest(file);
  impl_->files.push_back(std::move(file));
}

// Pass 1a+1b: record every name declared with an unordered or map type —
// variables and members (`std::unordered_map<K,V> index_;`), functions
// returning one (`std::unordered_map<K,V> compute() const;`), and aliases
// (`using Index = std::unordered_map<...>;`). Map-typed variables
// additionally feed the hot-path operator[] check.
void Linter::Impl::harvest(File& file) {
  const std::string& code = file.scrubbed.code;
  for (const std::string_view kind :
       {"unordered_map", "unordered_set", "map"}) {
    const bool unordered = kind != "map";
    const bool maplike = kind != "unordered_set";
    for (std::size_t pos = find_token(code, kind, 0);
         pos != std::string::npos; pos = find_token(code, kind, pos + 1)) {
      std::size_t cursor = skip_spaces(code, pos + kind.size());
      // `#include <unordered_map>` puts '>' right after the name; a real
      // type use puts '<'.
      if (cursor >= code.size() || code[cursor] != '<') continue;
      // Alias? Look back along the line for `using NAME =`.
      {
        std::size_t bol = code.rfind('\n', pos);
        bol = bol == std::string::npos ? 0 : bol + 1;
        const std::string_view before{code.data() + bol, pos - bol};
        const std::size_t using_pos = find_token(before, "using", 0);
        if (using_pos != std::string_view::npos &&
            before.find('=', using_pos) != std::string_view::npos) {
          std::size_t name_pos = skip_spaces(before, using_pos + 5);
          const std::string alias = read_qualified_ident(before, name_pos);
          if (unordered && !alias.empty()) {
            file.index.unordered_aliases.push_back(alias);
          }
          continue;
        }
      }
      cursor = skip_template_args(code, cursor);
      if (cursor == std::string::npos) continue;
      cursor = skip_spaces(code, cursor);
      while (cursor < code.size() &&
             (code[cursor] == '&' || code[cursor] == '*')) {
        cursor = skip_spaces(code, cursor + 1);
      }
      const std::string name = read_qualified_ident(code, cursor);
      if (name.empty() || name == "const") continue;
      cursor = skip_spaces(code, cursor);
      if (cursor < code.size() && code[cursor] == '(') {
        if (unordered) file.index.unordered_fns.push_back(name);
      } else {
        if (unordered) file.index.unordered_vars.push_back(name);
        if (maplike) file.index.map_like.push_back(name);
      }
    }
  }
  // lint:allow(unordered-iter): iterating a braced list of vectors, not a map
  for (std::vector<std::string>* list :
       {&file.index.unordered_vars, &file.index.unordered_fns,
        &file.index.unordered_aliases, &file.index.map_like}) {
    std::sort(list->begin(), list->end());
    list->erase(std::unique(list->begin(), list->end()), list->end());
  }
}

// Pass 1c: `IndexAlias name` declares an unordered variable too, and
// `auto name = unordered_fn(...)` binds the function's unordered result.
// It runs after every file's harvest, because it depends on the merged
// alias set.
void Linter::Impl::harvest_alias_uses(const File& file) {
  const std::string& code = file.scrubbed.code;
  // lint:allow(unordered-iter): std::set of names; iteration is ordered
  for (const std::string& alias : unordered_aliases) {
    for (std::size_t pos = find_token(code, alias, 0); pos != std::string::npos;
         pos = find_token(code, alias, pos + 1)) {
      std::size_t cursor = skip_spaces(code, pos + alias.size());
      while (cursor < code.size() &&
             (code[cursor] == '&' || code[cursor] == '*')) {
        cursor = skip_spaces(code, cursor + 1);
      }
      std::string name = read_qualified_ident(code, cursor);
      if (name.empty() || name == alias) continue;
      cursor = skip_spaces(code, cursor);
      // `IdSet name;` declares a variable, `IdSet name(...)` a function
      // whose result is unordered too.
      if (cursor < code.size() && code[cursor] == '(') {
        unordered_fns.insert(std::move(name));
      } else {
        unordered_vars.insert(std::move(name));
      }
    }
  }
  for (std::size_t pos = find_token(code, "auto", 0); pos != std::string::npos;
       pos = find_token(code, "auto", pos + 1)) {
    std::size_t cursor = skip_spaces(code, pos + 4);
    while (cursor < code.size() &&
           (code[cursor] == '&' || code[cursor] == '*')) {
      cursor = skip_spaces(code, cursor + 1);
    }
    const std::string name = read_qualified_ident(code, cursor);
    if (name.empty()) continue;
    cursor = skip_spaces(code, cursor);
    if (cursor >= code.size() || code[cursor] != '=') continue;
    cursor = skip_spaces(code, cursor + 1);
    std::string callee = read_qualified_ident(code, cursor);
    // Follow one member access: `index.samples()` / `view->probes()`.
    while (cursor + 1 < code.size() &&
           (code[cursor] == '.' ||
            (code[cursor] == '-' && code[cursor + 1] == '>'))) {
      cursor += code[cursor] == '.' ? std::size_t{1} : std::size_t{2};
      callee = read_qualified_ident(code, cursor);
    }
    if (cursor < code.size() && code[cursor] == '(' &&
        unordered_fns.count(callee) > 0) {
      unordered_vars.insert(name);
    }
  }
}

namespace {

/// Entropy/clock tokens banned outside the sanctioned modules. Tokens with
/// `needs_call` only match when followed by '(' so that e.g. a variable
/// named `time` in exported CSV headers can never trip the rule.
struct BannedToken {
  std::string_view token;
  bool needs_call;
  std::string_view why;
};

constexpr BannedToken kNondeterminismTokens[] = {
    {"rand", true, "libc rand() is not seedable per-study"},
    {"srand", true, "global libc seeding breaks stream forking"},
    {"random_device", false, "hardware entropy differs every run"},
    {"mt19937", false, "std engines differ across standard libraries"},
    {"mt19937_64", false, "std engines differ across standard libraries"},
    {"minstd_rand", false, "std engines differ across standard libraries"},
    {"default_random_engine", false, "implementation-defined engine"},
    {"time", true, "wall-clock seeding breaks reproducibility"},
    {"clock", true, "process clocks vary run-to-run"},
    {"steady_clock", false, "clock reads must stay inside src/obs"},
    {"system_clock", false, "clock reads must stay inside src/obs"},
    {"high_resolution_clock", false, "clock reads must stay inside src/obs"},
};

/// Member types whose mutability is the point: synchronization primitives
/// guarding other state. Matched as substrings so std::shared_mutex,
/// std::atomic<...>, std::once_flag etc. all qualify.
constexpr std::string_view kMutableAllowedTypes[] = {
    "mutex", "atomic", "once_flag", "condition_variable"};

}  // namespace

void Linter::Impl::check_file(const File& file,
                              std::vector<Finding>& findings) const {
  const std::string& code = file.scrubbed.code;
  const std::string& original = file.original;

  const auto report = [&](Rule rule, std::size_t pos, std::string message) {
    Finding finding;
    finding.file = file.path;
    finding.line = line_of(code, pos);
    finding.rule = rule;
    finding.message = std::move(message);
    finding.snippet = snippet_at(original, code, pos);
    apply_suppressions(file, finding);
    findings.push_back(std::move(finding));
  };

  // R1 — range-for over unordered containers.
  for (std::size_t pos = find_token(code, "for", 0); pos != std::string::npos;
       pos = find_token(code, "for", pos + 1)) {
    std::size_t cursor = skip_spaces(code, pos + 3);
    if (cursor >= code.size() || code[cursor] != '(') continue;
    int depth = 0;
    std::size_t colon = std::string::npos;
    std::size_t close = std::string::npos;
    for (std::size_t i = cursor; i < code.size(); ++i) {
      const char ch = code[i];
      if (ch == '(') ++depth;
      if (ch == ')' && --depth == 0) {
        close = i;
        break;
      }
      if (ch == ';' && depth == 1) break;  // classic three-clause for
      if (ch == ':' && depth == 1 && colon == std::string::npos &&
          (i == 0 || code[i - 1] != ':') &&
          (i + 1 >= code.size() || code[i + 1] != ':')) {
        colon = i;
      }
    }
    if (colon == std::string::npos || close == std::string::npos) continue;
    const std::string_view range =
        trim(std::string_view{code}.substr(colon + 1, close - colon - 1));
    std::string culprit;
    if (range.find("unordered_") != std::string_view::npos) {
      culprit.assign(range.substr(0, 40));
    } else {
      // Classify by the trailing component of the range expression, so
      // member (`cache.entries_`), pointer (`impl_->table_`) and qualified
      // accesses all resolve against the harvested symbol tables.
      std::string_view expr = range;
      bool call = false;
      if (!expr.empty() && expr.back() == ')') {
        int args = 0;
        std::size_t open = std::string_view::npos;
        for (std::size_t i = expr.size(); i-- > 0;) {
          if (expr[i] == ')') ++args;
          if (expr[i] == '(' && --args == 0) {
            open = i;
            break;
          }
        }
        if (open == std::string_view::npos) continue;
        expr = trim(expr.substr(0, open));
        call = true;
      }
      if (expr.empty() || !is_ident_char(expr.back())) continue;
      std::size_t start = expr.size();
      while (start > 0 && is_ident_char(expr[start - 1])) --start;
      const std::string tail{expr.substr(start)};
      if (call && unordered_fns.count(tail) > 0) {
        culprit = tail + "()";
      } else if (!call && unordered_vars.count(tail) > 0) {
        culprit = tail;
      }
    }
    if (!culprit.empty()) {
      report(Rule::UnorderedIter, pos,
             "range-for over unordered container '" + culprit +
                 "': iteration order is unspecified and may leak into "
                 "ordered output");
    }
  }

  // R2 — entropy and clock sources.
  if (LintOptions::applies(Rule::Nondeterminism, file.path)) {
    for (const BannedToken& banned : kNondeterminismTokens) {
      for (std::size_t pos = find_token(code, banned.token, 0);
           pos != std::string::npos;
           pos = find_token(code, banned.token, pos + 1)) {
        if (banned.needs_call) {
          const std::size_t after =
              skip_spaces(code, pos + banned.token.size());
          if (after >= code.size() || code[after] != '(') continue;
        }
        report(Rule::Nondeterminism, pos,
               "'" + std::string{banned.token} +
                   "' outside util/rng and obs: " + std::string{banned.why});
      }
    }
  }

  // R3 — raw assert() in library code.
  if (LintOptions::applies(Rule::RawAssert, file.path)) {
    for (std::size_t pos = find_token(code, "assert", 0);
         pos != std::string::npos; pos = find_token(code, "assert", pos + 1)) {
      const std::size_t after = skip_spaces(code, pos + 6);
      if (after >= code.size() || code[after] != '(') continue;
      report(Rule::RawAssert, pos,
             "raw assert() vanishes under NDEBUG; use CLOUDRTT_CHECK or "
             "CLOUDRTT_DCHECK (util/check.hpp)");
    }
  }

  // R5 — mutable members in headers. A lambda's `mutable` qualifier (body
  // brace, trailing return or noexcept right after it) is not a member.
  if (is_header(file.path) &&
      LintOptions::applies(Rule::MutableMember, file.path)) {
    for (std::size_t pos = find_token(code, "mutable", 0);
         pos != std::string::npos; pos = find_token(code, "mutable", pos + 1)) {
      const std::size_t cursor = skip_spaces(code, pos + 7);
      if (cursor >= code.size() || code[cursor] == '{' || code[cursor] == '-') {
        continue;
      }
      if (code.compare(cursor, 8, "noexcept") == 0) continue;
      const std::size_t end = code.find_first_of(";{=", cursor);
      const std::string_view decl = std::string_view{code}.substr(
          cursor,
          end == std::string::npos ? code.size() - cursor : end - cursor);
      bool allowed = false;
      for (const std::string_view type : kMutableAllowedTypes) {
        if (decl.find(type) != std::string_view::npos) {
          allowed = true;
          break;
        }
      }
      if (allowed) continue;
      report(Rule::MutableMember, pos,
             "mutable member in a header: lazy caches behind const interfaces "
             "are hidden shared state the parallel executor cannot tolerate; "
             "guard it and justify with lint:allow, or materialize up front");
    }
  }

  // R6 — function-local static non-const objects.
  if (LintOptions::applies(Rule::LocalStatic, file.path)) {
    std::vector<std::size_t> statics;
    for (std::size_t pos = find_token(code, "static", 0);
         pos != std::string::npos; pos = find_token(code, "static", pos + 1)) {
      statics.push_back(pos);
    }
    if (!statics.empty()) {
      std::vector<BraceKind> stack;
      std::size_t next = 0;
      for (std::size_t i = 0; i < code.size() && next < statics.size(); ++i) {
        if (i == statics[next]) {
          if (in_function_body(stack)) {
            std::size_t cursor = skip_spaces(code, i + 6);
            const std::string qualifier = read_qualified_ident(code, cursor);
            if (qualifier != "const" && qualifier != "constexpr" &&
                qualifier != "constinit") {
              report(Rule::LocalStatic, i,
                     "function-local static non-const object: initialization "
                     "order and lifetime are process state, and mutation is "
                     "thread-hostile; hoist it or make it const");
            }
          }
          ++next;
        }
        if (code[i] == '{') {
          stack.push_back(classify_brace(code, i));
        } else if (code[i] == '}' && !stack.empty()) {
          stack.pop_back();
        }
      }
    }
  }

  // R4 — header hygiene.
  if (is_header(file.path)) {
    if (code.find("#pragma once") == std::string::npos) {
      report(Rule::HeaderHygiene, 0, "header is missing #pragma once");
    }
    for (std::size_t pos = find_token(code, "using", 0);
         pos != std::string::npos; pos = find_token(code, "using", pos + 1)) {
      const std::size_t after = skip_spaces(code, pos + 5);
      if (code.compare(after, 9, "namespace") == 0 &&
          (after + 9 >= code.size() || !is_ident_char(code[after + 9]))) {
        report(Rule::HeaderHygiene, pos,
               "'using namespace' in a header leaks into every includer");
      }
    }
  }
}

// A finding is suppressed by `// lint:allow(<rule>): <justification>` on the
// finding's own line, or on a comment-only line directly above it. The
// justification is mandatory: an allow without one does not suppress.
void Linter::Impl::apply_suppressions(const File& file,
                                      Finding& finding) const {
  const auto try_line = [&](std::size_t line_index) -> bool {
    if (line_index >= file.scrubbed.comments.size()) return false;
    const std::string& comment = file.scrubbed.comments[line_index];
    const std::string needle =
        "lint:allow(" + std::string{rule_key(finding.rule)} + ")";
    const std::size_t pos = comment.find(needle);
    if (pos == std::string::npos) return false;
    std::string_view rest =
        trim(std::string_view{comment}.substr(pos + needle.size()));
    if (rest.starts_with(':')) {
      rest = trim(rest.substr(1));
      if (!rest.empty()) {
        finding.suppressed = true;
        finding.justification.assign(rest);
        return true;
      }
    }
    finding.message += " [lint:allow without ': justification' ignored]";
    return true;
  };
  const std::size_t line_index = finding.line - 1;
  if (try_line(line_index)) return;
  if (line_index == 0) return;
  // The line above only counts when it carries no code of its own.
  std::size_t bol = 0, eol = 0, current = 0;
  const std::string& code = file.scrubbed.code;
  for (std::size_t i = 0; i <= code.size(); ++i) {
    if (i == code.size() || code[i] == '\n') {
      if (current + 1 == line_index) {
        bol = eol == 0 ? 0 : eol + 1;
        const std::string_view above{code.data() + bol, i - bol};
        if (trim(above).empty()) try_line(line_index - 1);
        return;
      }
      eol = i;
      ++current;
    }
  }
}

std::vector<Finding> Linter::run() {
  // Merge every per-file index into the global tables.
  for (const Impl::File& file : impl_->files) {
    impl_->unordered_vars.insert(file.index.unordered_vars.begin(),
                                 file.index.unordered_vars.end());
    impl_->unordered_fns.insert(file.index.unordered_fns.begin(),
                                file.index.unordered_fns.end());
    impl_->unordered_aliases.insert(file.index.unordered_aliases.begin(),
                                    file.index.unordered_aliases.end());
    impl_->map_like.insert(file.index.map_like.begin(),
                           file.index.map_like.end());
  }
  for (const Impl::File& file : impl_->files) {
    impl_->harvest_alias_uses(file);
  }

  std::vector<Finding> findings;
  for (const Impl::File& file : impl_->files) {
    impl_->check_file(file, findings);
  }

  std::vector<AuditFile> views;
  views.reserve(impl_->files.size());
  for (const Impl::File& file : impl_->files) {
    views.push_back(AuditFile{file.path, file.original, &file.scrubbed,
                              &file.shape, &file.index});
  }
  const auto report = [&](std::size_t file_index, Rule rule, std::size_t line,
                          std::string message) {
    const Impl::File& file = impl_->files[file_index];
    Finding finding;
    finding.file = file.path;
    finding.line = line;
    finding.rule = rule;
    finding.message = std::move(message);
    const std::size_t pos = offset_of_line(file.scrubbed.code, line);
    if (pos != std::string::npos) {
      finding.snippet = snippet_at(file.original, file.scrubbed.code, pos);
    }
    impl_->apply_suppressions(file, finding);
    findings.push_back(std::move(finding));
  };
  run_audit(views, impl_->map_like, report);
  // Allow-hygiene last: orphan detection needs every other family's
  // findings, suppressed included.
  run_allow_hygiene(views, findings, report);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return static_cast<int>(a.rule) < static_cast<int>(b.rule);
            });
  return findings;
}

std::vector<std::string> Linter::unordered_symbols() const {
  std::vector<std::string> out;
  // The symbol tables are std::set (ordered) — only their *contents* are
  // names of unordered symbols, which trips the scanner's own heuristic.
  // lint:allow(unordered-iter): std::set of names; iteration is ordered
  for (const std::string& name : impl_->unordered_vars) out.push_back(name);
  // lint:allow(unordered-iter): std::set of names; iteration is ordered
  for (const std::string& name : impl_->unordered_fns) {
    out.push_back(name + "()");
  }
  // lint:allow(unordered-iter): std::set of names; iteration is ordered
  for (const std::string& name : impl_->unordered_aliases) {
    out.push_back("using " + name);
  }
  return out;
}

std::array<std::size_t, kRuleCount> Linter::allow_uses() const {
  std::array<std::size_t, kRuleCount> counts{};
  for (const Impl::File& file : impl_->files) {
    for (const AllowUse& allow : file.index.allows) {
      Rule rule = Rule::AllowHygiene;  // unknown keys tally here
      (void)rule_from_key(allow.rule, rule);
      ++counts[static_cast<std::size_t>(rule)];
    }
  }
  return counts;
}

Summary summarize(const std::vector<Finding>& findings, std::size_t files,
                  const std::array<std::size_t, kRuleCount>& allow_uses) {
  Summary summary;
  summary.files = files;
  for (const Finding& finding : findings) {
    Summary::PerRule& row =
        summary.rules[static_cast<std::size_t>(finding.rule)];
    ++row.total;
    if (finding.suppressed) ++row.suppressed;
  }
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    summary.rules[i].allow_uses = allow_uses[i];
  }
  return summary;
}

std::size_t Summary::unsuppressed_total() const {
  std::size_t total = 0;
  for (const PerRule& row : rules) {
    total += row.total - row.suppressed;
  }
  return total;
}

}  // namespace cloudrtt::lint
