#include "lint/index.hpp"

#include <algorithm>

namespace cloudrtt::lint {

namespace {

/// Module directory of a src/ file ("src/routing/x.cpp" -> "routing");
/// "" for files outside src/ or directly under it.
[[nodiscard]] std::string_view module_of(std::string_view path) {
  std::size_t at = 0;
  for (;; ++at) {
    at = path.find("src/", at);
    if (at == std::string_view::npos) return {};
    if (at == 0 || path[at - 1] == '/') break;
  }
  const std::size_t begin = at + 4;
  const std::size_t slash = path.find('/', begin);
  if (slash == std::string_view::npos) return {};
  return path.substr(begin, slash - begin);
}

/// The content of 0-based line `index` in `code`.
[[nodiscard]] std::string_view line_text(std::string_view code,
                                         std::size_t index) {
  const std::size_t begin = offset_of_line(code, index + 1);
  if (begin == std::string_view::npos) return {};
  std::size_t end = code.find('\n', begin);
  if (end == std::string_view::npos) end = code.size();
  return code.substr(begin, end - begin);
}

/// The declaration a field annotation binds to: the same line when it holds
/// code, otherwise the next line with code. Returns the 0-based line, or
/// npos when the file ends first.
[[nodiscard]] std::size_t binding_line(std::string_view code,
                                       std::size_t comment_line) {
  const std::size_t total = 1 + static_cast<std::size_t>(std::count(
                                    code.begin(), code.end(), '\n'));
  for (std::size_t at = comment_line; at < total; ++at) {
    if (!trim(line_text(code, at)).empty()) return at;
  }
  return std::string_view::npos;
}

/// Field name of a member declaration line: the trailing identifier of the
/// text before the first ';', '=', or '{'.
[[nodiscard]] std::string field_name_of(std::string_view decl) {
  const std::size_t cut = decl.find_first_of(";={");
  std::string_view head = trim(decl.substr(0, cut));
  std::size_t end = head.size();
  while (end > 0 && !is_ident_char(head[end - 1])) --end;
  std::size_t begin = end;
  while (begin > 0 && is_ident_char(head[begin - 1])) --begin;
  return std::string{head.substr(begin, end - begin)};
}

/// Innermost enclosing Type brace's name at `pos` ("" at namespace scope).
[[nodiscard]] std::string owner_at(const FileShape& shape, std::size_t pos) {
  for (int i = shape.innermost(pos); i >= 0;
       i = shape.braces[static_cast<std::size_t>(i)].parent) {
    const BraceInfo& info = shape.braces[static_cast<std::size_t>(i)];
    if (info.kind == BraceKind::Type) return info.name;
  }
  return {};
}

/// First brace of `kind` opening at or after `from`; -1 when none.
[[nodiscard]] int next_brace(const FileShape& shape, BraceKind kind,
                             std::size_t from) {
  int best = -1;
  for (std::size_t i = 0; i < shape.braces.size(); ++i) {
    if (shape.braces[i].kind != kind || shape.braces[i].open < from) continue;
    if (best < 0 ||
        shape.braces[i].open < shape.braces[static_cast<std::size_t>(best)].open) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace

void index_annotations(const std::string& path, std::string_view original,
                       const Scrubbed& scrubbed, const FileShape& shape,
                       bool harvest_markers, FileIndex& out) {
  const std::string_view code = scrubbed.code;
  const std::string stem{path_stem(path)};
  const std::string_view from_module = module_of(path);

  for (std::size_t i = 0; harvest_markers && i < scrubbed.comments.size();
       ++i) {
    const std::string& comment = scrubbed.comments[i];
    if (comment.find("lint:") == std::string::npos) continue;

    std::size_t at = comment.find("lint:guarded_by(");
    if (at != std::string::npos) {
      const std::size_t open = at + 16;
      const std::size_t close = comment.find(')', open);
      const std::string guard{
          trim(comment.substr(open, close == std::string::npos
                                        ? std::string::npos
                                        : close - open))};
      const std::size_t decl_line = binding_line(code, i);
      if (!guard.empty() && decl_line != std::string_view::npos) {
        const std::size_t pos = offset_of_line(code, decl_line + 1);
        GuardedField field;
        field.owner = owner_at(shape, pos);
        field.field = field_name_of(line_text(code, decl_line));
        field.guard = guard;
        field.file = path;
        field.stem = stem;
        field.line = decl_line + 1;
        if (!field.field.empty()) out.guarded.push_back(std::move(field));
      }
    }

    at = comment.find("lint:frozen");
    if (at != std::string::npos &&
        comment.compare(at, 12, "lint:frozen(") != 0) {
      const std::size_t pos = offset_of_line(code, i + 1);
      const int brace = next_brace(shape, BraceKind::Type, pos);
      if (brace >= 0) {
        const BraceInfo& info =
            shape.braces[static_cast<std::size_t>(brace)];
        if (!info.name.empty()) {
          FrozenType frozen;
          frozen.name = info.name;
          frozen.file = path;
          frozen.stem = stem;
          frozen.line = line_of(code, info.open);
          out.frozen.push_back(std::move(frozen));
        }
      }
    }

    at = comment.find("lint:hot");
    if (at != std::string::npos &&
        comment.compare(at, 9, "lint:hot(") != 0) {
      const std::size_t pos = offset_of_line(code, i + 1);
      const int brace = next_brace(shape, BraceKind::Function, pos);
      if (brace >= 0) {
        const BraceInfo& info =
            shape.braces[static_cast<std::size_t>(brace)];
        HotRegion region;
        region.file = path;
        region.begin = info.open;
        region.end = info.close;
        region.label = info.name;
        region.line = i + 1;
        out.hot.push_back(std::move(region));
      }
    } else if (comment.find("lint:hot(file)") != std::string::npos) {
      HotRegion region;
      region.file = path;
      region.begin = 0;
      region.end = original.size();
      region.label = "file";
      region.line = i + 1;
      out.hot.push_back(std::move(region));
    }

    for (at = comment.find("lint:allow("); at != std::string::npos;
         at = comment.find("lint:allow(", at + 1)) {
      const std::size_t open = at + 11;
      const std::size_t close = comment.find(')', open);
      if (close == std::string::npos) continue;
      AllowUse allow;
      allow.rule = std::string{trim(comment.substr(open, close - open))};
      allow.line = i + 1;
      const std::string_view rest =
          trim(std::string_view{comment}.substr(close + 1));
      allow.has_justification =
          rest.starts_with(':') && !trim(rest.substr(1)).empty();
      out.allows.push_back(std::move(allow));
    }
  }

  // Include edges come from the original text (the scrubber blanks string
  // contents), gated on the scrubbed line so commented-out includes don't
  // register. Only src/<module>/ files contribute to the layering DAG.
  if (from_module.empty()) return;
  for (std::size_t i = 0;; ++i) {
    const std::string_view scrubbed_line = line_text(code, i);
    const std::size_t begin = offset_of_line(code, i + 1);
    if (begin == std::string_view::npos) break;
    if (!trim(scrubbed_line).starts_with("#include")) continue;
    const std::string_view raw = original.substr(begin, scrubbed_line.size());
    const std::size_t quote = raw.find('"');
    if (quote == std::string_view::npos) continue;
    const std::size_t close = raw.find('"', quote + 1);
    if (close == std::string_view::npos) continue;
    const std::string_view header = raw.substr(quote + 1, close - quote - 1);
    const std::size_t slash = header.find('/');
    if (slash == std::string_view::npos) continue;
    IncludeEdge edge;
    edge.from_module = std::string{from_module};
    edge.to_module = std::string{header.substr(0, slash)};
    edge.header = std::string{header};
    edge.line = i + 1;
    out.edges.push_back(std::move(edge));
  }
}

}  // namespace cloudrtt::lint
