#include "lint/audit.hpp"

#include <tuple>

#include "lint/layers.hpp"

namespace cloudrtt::lint {

namespace {

/// Position of the closer matching `open` (code[open] must be the opener);
/// npos when unbalanced.
[[nodiscard]] std::size_t matching_close(std::string_view code,
                                         std::size_t open, char opener,
                                         char closer) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == opener) ++depth;
    if (code[i] == closer && --depth == 0) return i;
  }
  return std::string_view::npos;
}

// ---------------------------------------------------------------------------
// guarded-by

struct LockRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Byte ranges of `file` where `guard` is held: from an RAII lock declaration
/// whose argument list names the guard (trailing-component match, so
/// `shard.mutex` satisfies guard `mutex`) to the end of the enclosing block,
/// and likewise from a manual `guard.lock()` / `.lock_shared()` call.
[[nodiscard]] std::vector<LockRange> lock_ranges(const AuditFile& file,
                                                 std::string_view guard) {
  const std::string& code = file.scrubbed->code;
  std::vector<LockRange> ranges;
  for (const std::string_view decl :
       {"lock_guard", "unique_lock", "shared_lock", "scoped_lock"}) {
    for (std::size_t pos = find_token(code, decl, 0);
         pos != std::string_view::npos;
         pos = find_token(code, decl, pos + 1)) {
      std::size_t cursor = pos + decl.size();
      if (cursor < code.size() && code[cursor] == '<') {
        cursor = skip_template_args(code, cursor);
        if (cursor == std::string_view::npos) continue;
      }
      cursor = skip_spaces(code, cursor);
      // Named lock or a temporary (`std::lock_guard{mu}` — a bug, but the
      // guard is still held for the statement; count the declaration form).
      (void)read_qualified_ident(code, cursor);
      cursor = skip_spaces(code, cursor);
      if (cursor >= code.size() ||
          (code[cursor] != '(' && code[cursor] != '{')) {
        continue;
      }
      const char opener = code[cursor];
      const char closer = opener == '(' ? ')' : '}';
      const std::size_t close = matching_close(code, cursor, opener, closer);
      if (close == std::string_view::npos) continue;
      const std::string_view args =
          std::string_view{code}.substr(cursor + 1, close - cursor - 1);
      if (find_token(args, guard, 0) == std::string_view::npos) continue;
      ranges.push_back(
          {close, file.shape->enclosing_close(pos, code.size())});
    }
  }
  for (std::size_t pos = find_token(code, guard, 0);
       pos != std::string_view::npos; pos = find_token(code, guard, pos + 1)) {
    std::size_t cursor = pos + guard.size();
    if (cursor < code.size() && code[cursor] == '.') {
      ++cursor;
    } else if (cursor + 1 < code.size() && code[cursor] == '-' &&
               code[cursor + 1] == '>') {
      cursor += 2;
    } else {
      continue;
    }
    const std::string member = read_qualified_ident(code, cursor);
    if (member != "lock" && member != "lock_shared") continue;
    cursor = skip_spaces(code, cursor);
    if (cursor >= code.size() || code[cursor] != '(') continue;
    ranges.push_back({pos, file.shape->enclosing_close(pos, code.size())});
  }
  return ranges;
}

[[nodiscard]] bool covered(const std::vector<LockRange>& ranges,
                           std::size_t pos) {
  for (const LockRange& range : ranges) {
    if (range.begin < pos && pos < range.end) return true;
  }
  return false;
}

/// True when `pos` sits inside a constructor or destructor of `owner` — no
/// concurrent access can exist before construction finishes or after
/// destruction starts, so guarded fields may be touched lock-free there.
[[nodiscard]] bool in_ctor_or_dtor(const AuditFile& file, std::size_t pos,
                                   std::string_view owner) {
  const std::vector<BraceInfo>& braces = file.shape->braces;
  for (int i = file.shape->innermost(pos); i >= 0;
       i = braces[static_cast<std::size_t>(i)].parent) {
    const BraceInfo& info = braces[static_cast<std::size_t>(i)];
    if (info.kind != BraceKind::Function || info.name.empty()) continue;
    if (info.name == owner) return true;
    if (info.name[0] == '~' &&
        std::string_view{info.name}.substr(1) == owner) {
      return true;
    }
  }
  return false;
}

void check_guarded_by(const std::vector<AuditFile>& files,
                      const AuditReport& report) {
  for (const AuditFile& source : files) {
    for (const GuardedField& field : source.index->guarded) {
      for (std::size_t target = 0; target < files.size(); ++target) {
        const AuditFile& file = files[target];
        if (path_stem(file.path) != field.stem) continue;
        const std::string& code = file.scrubbed->code;
        const std::vector<LockRange> held = lock_ranges(file, field.guard);
        for (std::size_t pos = find_token(code, field.field, 0);
             pos != std::string_view::npos;
             pos = find_token(code, field.field, pos + 1)) {
          if (!file.shape->in_function(pos)) continue;
          if (covered(held, pos)) continue;
          if (in_ctor_or_dtor(file, pos, field.owner)) continue;
          report(target, Rule::GuardedBy, line_of(code, pos),
                 "field '" + field.field + "' is lint:guarded_by('" +
                     field.guard + "') (" + field.file + ":" +
                     std::to_string(field.line) +
                     ") but is accessed without holding it; lock it or "
                     "justify with lint:allow(guarded-by)");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// frozen

void scan_frozen_body(const AuditFile& file, std::size_t file_index,
                      const BraceInfo& body, const FrozenType& type,
                      const AuditReport& report) {
  const std::string& code = file.scrubbed->code;
  bool public_access = !body.is_class;  // struct members default to public
  std::size_t pos = body.open + 1;
  while (pos < body.close) {
    const char ch = code[pos];
    if (ch == '{') {
      // Member-function body, nested type, or brace initializer: opaque.
      const std::size_t close = matching_close(code, pos, '{', '}');
      pos = close == std::string_view::npos ? body.close : close + 1;
      continue;
    }
    if (!is_ident_char(ch) || (pos > 0 && is_ident_char(code[pos - 1]))) {
      ++pos;
      continue;
    }
    std::size_t end = pos;
    while (end < body.close && is_ident_char(code[end])) ++end;
    const std::string_view word =
        std::string_view{code}.substr(pos, end - pos);
    std::size_t after = skip_spaces(code, end);
    if (word == "public" || word == "private" || word == "protected") {
      if (after < code.size() && code[after] == ':' &&
          (after + 1 >= code.size() || code[after + 1] != ':')) {
        public_access = word == "public";
        pos = after + 1;
        continue;
      }
    }
    if (after >= body.close || code[after] != '(') {
      pos = end;
      continue;
    }
    // `word(` at class depth 0: a member function — unless the identifier
    // is part of an initializer expression (`int x_ = compute();`).
    std::size_t before = pos;
    while (before > body.open + 1 && is_space(code[before - 1])) --before;
    const char prev = before > 0 ? code[before - 1] : '\0';
    if (prev == '=') {
      pos = end;
      continue;
    }
    const bool is_dtor = prev == '~';
    const std::size_t params = matching_close(code, after, '(', ')');
    if (params == std::string_view::npos || params >= body.close) {
      pos = end;
      continue;
    }
    const std::size_t term = code.find_first_of(";{", params);
    if (term == std::string_view::npos || term > body.close) {
      pos = params + 1;
      continue;
    }
    const std::string_view quals =
        std::string_view{code}.substr(params + 1, term - params - 1);
    // The statement's leading tokens (storage class, friend, return type).
    std::size_t intro_begin = before;
    while (intro_begin > body.open + 1) {
      const char c = code[intro_begin - 1];
      if (c == ';' || c == '{' || c == '}') break;
      if (c == ':') {
        // `::` is part of a qualified return type; a lone `:` ends the
        // statement (access specifier).
        if (intro_begin >= 2 && code[intro_begin - 2] == ':') {
          intro_begin -= 2;
          continue;
        }
        break;
      }
      --intro_begin;
    }
    const std::string_view intro =
        std::string_view{code}.substr(intro_begin, before - intro_begin);
    const bool is_const = find_token(quals, "const", 0) != std::string::npos;
    const bool is_deleted =
        find_token(quals, "delete", 0) != std::string::npos;
    const bool is_static = find_token(intro, "static", 0) != std::string::npos;
    const bool is_friend = find_token(intro, "friend", 0) != std::string::npos;
    const bool is_ctor = word == type.name;
    if (public_access && !is_const && !is_deleted && !is_static &&
        !is_friend && !is_ctor && !is_dtor) {
      report(file_index, Rule::Frozen, line_of(code, pos),
             "'" + type.name + "' is lint:frozen (immutable after "
             "construction) but declares public non-const member '" +
                 std::string{word} +
                 "'; make it const, private to the build phase, or justify "
                 "with lint:allow(frozen)");
    }
    pos = term;
  }
}

void check_frozen(const std::vector<AuditFile>& files,
                  const AuditReport& report) {
  std::vector<std::pair<std::string, std::string>> stems;  // stem, type name
  for (std::size_t i = 0; i < files.size(); ++i) {
    const AuditFile& file = files[i];
    for (const FrozenType& type : file.index->frozen) {
      stems.emplace_back(type.stem, type.name);
      for (const BraceInfo& body : file.shape->braces) {
        if (body.kind != BraceKind::Type || body.name != type.name) continue;
        if (line_of(file.scrubbed->code, body.open) != type.line) continue;
        scan_frozen_body(file, i, body, type, report);
      }
    }
  }
  // const_cast anywhere in a frozen type's header/.cpp pair defeats the
  // freeze no matter which member it targets.
  for (std::size_t i = 0; i < files.size(); ++i) {
    const AuditFile& file = files[i];
    const std::string_view stem = path_stem(file.path);
    std::string_view type_name;
    for (const auto& [frozen_stem, name] : stems) {
      if (frozen_stem == stem) {
        type_name = name;
        break;
      }
    }
    if (type_name.empty()) continue;
    const std::string& code = file.scrubbed->code;
    for (std::size_t pos = find_token(code, "const_cast", 0);
         pos != std::string_view::npos;
         pos = find_token(code, "const_cast", pos + 1)) {
      report(i, Rule::Frozen, line_of(code, pos),
             "const_cast in the header/.cpp pair of lint:frozen type '" +
                 std::string{type_name} + "'");
    }
  }
}

// ---------------------------------------------------------------------------
// hot-path-alloc

void check_hot_region(const AuditFile& file, std::size_t file_index,
                      const HotRegion& region,
                      const std::set<std::string>& map_like,
                      const AuditReport& report) {
  const std::string& code = file.scrubbed->code;
  const std::size_t begin = region.begin;
  const std::size_t end = std::min(region.end, code.size());
  const std::string where = "lint:hot " +
                            (region.label == "file"
                                 ? std::string{"file"}
                                 : "function '" + region.label + "'") +
                            ": ";

  const auto flag = [&](std::size_t pos, std::string_view what) {
    report(file_index, Rule::HotPathAlloc, line_of(code, pos),
           where + std::string{what} +
               "; steer toward caller scratch or string_view");
  };

  struct SimpleBan {
    std::string_view token;
    bool needs_call;
    std::string_view what;
  };
  constexpr SimpleBan kBans[] = {
      {"new", false, "operator new allocates per call"},
      {"make_unique", false, "make_unique allocates per call"},
      {"make_shared", false, "make_shared allocates per call"},
      {"to_string", true, "to_string builds a heap string"},
      {"ostringstream", false, "stream formatting allocates"},
      {"stringstream", false, "stream formatting allocates"},
  };
  for (const SimpleBan& ban : kBans) {
    for (std::size_t pos = find_token(code, ban.token, begin);
         pos != std::string_view::npos && pos < end;
         pos = find_token(code, ban.token, pos + 1)) {
      if (ban.needs_call) {
        const std::size_t after = skip_spaces(code, pos + ban.token.size());
        if (after >= code.size() || code[after] != '(') continue;
      }
      flag(pos, ban.what);
    }
  }

  // std::function is type-erased and allocates for non-trivial captures.
  for (std::size_t pos = find_token(code, "function", begin);
       pos != std::string_view::npos && pos < end;
       pos = find_token(code, "function", pos + 1)) {
    if (pos >= 5 && code.compare(pos - 5, 5, "std::") == 0) {
      flag(pos, "std::function type-erases and may allocate");
    }
  }

  // std::string / std::vector value declarations and temporaries.
  for (const std::string_view type : {"string", "vector"}) {
    for (std::size_t pos = find_token(code, type, begin);
         pos != std::string_view::npos && pos < end;
         pos = find_token(code, type, pos + 1)) {
      if (pos < 5 || code.compare(pos - 5, 5, "std::") != 0) continue;
      std::size_t cursor = pos + type.size();
      if (cursor < code.size() && code[cursor] == '<') {
        cursor = skip_template_args(code, cursor);
        if (cursor == std::string_view::npos) continue;
      }
      cursor = skip_spaces(code, cursor);
      if (cursor >= code.size()) continue;
      const char next = code[cursor];
      if (is_ident_char(next)) {
        flag(pos, "owning std::" + std::string{type} +
                      " value declared in the hot path");
      } else if (next == '{' || next == '(') {
        flag(pos, "std::" + std::string{type} + " temporary in the hot path");
      }
    }
  }

  // operator[] on a map-typed symbol inserts on miss and rehashes.
  for (std::size_t pos = code.find('[', begin);
       pos != std::string_view::npos && pos < end;
       pos = code.find('[', pos + 1)) {
    if (pos + 1 < code.size() && code[pos + 1] == '[') continue;
    if (pos > 0 && code[pos - 1] == '[') continue;
    std::size_t name_end = pos;
    while (name_end > begin && is_space(code[name_end - 1])) --name_end;
    std::size_t name_begin = name_end;
    while (name_begin > begin && is_ident_char(code[name_begin - 1])) {
      --name_begin;
    }
    if (name_begin == name_end) continue;
    const std::string name{
        std::string_view{code}.substr(name_begin, name_end - name_begin)};
    if (map_like.count(name) == 0) continue;
    flag(pos, "operator[] on map '" + name + "' inserts on miss");
  }
}

void check_hot_paths(const std::vector<AuditFile>& files,
                     const std::set<std::string>& map_like,
                     const AuditReport& report) {
  for (std::size_t i = 0; i < files.size(); ++i) {
    const AuditFile& file = files[i];
    if (!LintOptions::applies(Rule::HotPathAlloc, file.path)) continue;
    for (const HotRegion& region : file.index->hot) {
      check_hot_region(file, i, region, map_like, report);
    }
  }
}

// ---------------------------------------------------------------------------
// layering-dag

void check_layering(const std::vector<AuditFile>& files,
                    const AuditReport& report) {
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const IncludeEdge& edge : files[i].index->edges) {
      if (edge.from_module == edge.to_module) continue;
      const int from = layer_rank(edge.from_module);
      const int to = layer_rank(edge.to_module);
      if (from < 0 || to < 0) continue;  // unknown modules are not in the DAG
      if (from > to) continue;           // downward edge: legal
      report(i, Rule::LayeringDag, edge.line,
             "backward include edge: module '" + edge.from_module +
                 "' (layer " + std::to_string(from) +
                 ") may not include \"" + edge.header + "\" from '" +
                 edge.to_module + "' (layer " + std::to_string(to) +
                 "); the order is declared in src/lint/layers.hpp");
    }
  }
}

}  // namespace

void run_audit(const std::vector<AuditFile>& files,
               const std::set<std::string>& map_like,
               const AuditReport& report) {
  check_guarded_by(files, report);
  check_frozen(files, report);
  check_hot_paths(files, map_like, report);
  check_layering(files, report);
}

void run_allow_hygiene(const std::vector<AuditFile>& files,
                       const std::vector<Finding>& findings,
                       const AuditReport& report) {
  // (file, rule, line) of every finding so far, suppressed included — a
  // justified allow is healthy iff a finding of its rule sits on its own
  // line (trailing form) or the line below (comment-line-above form).
  std::set<std::tuple<std::string, int, std::size_t>> at;
  for (const Finding& finding : findings) {
    at.emplace(finding.file, static_cast<int>(finding.rule), finding.line);
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    const AuditFile& file = files[i];
    if (!LintOptions::applies(Rule::AllowHygiene, file.path)) continue;
    for (const AllowUse& allow : file.index->allows) {
      if (!allow.has_justification) {
        report(i, Rule::AllowHygiene, allow.line,
               "lint:allow(" + allow.rule +
                   ") without ': justification' — it suppresses nothing; "
                   "justify it or remove it");
        continue;
      }
      Rule rule{};
      if (!rule_from_key(allow.rule, rule)) {
        report(i, Rule::AllowHygiene, allow.line,
               "lint:allow names unknown rule '" + allow.rule +
                   "' (see --list-rules)");
        continue;
      }
      const std::string path{file.path};
      if (at.count({path, static_cast<int>(rule), allow.line}) == 0 &&
          at.count({path, static_cast<int>(rule), allow.line + 1}) == 0) {
        report(i, Rule::AllowHygiene, allow.line,
               "orphan lint:allow(" + allow.rule +
                   "): no finding of that rule here or on the next line — "
                   "the code it excused is gone; remove the allow");
      }
    }
  }
}

}  // namespace cloudrtt::lint
