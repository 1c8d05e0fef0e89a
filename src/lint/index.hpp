#pragma once
// Pass 1 of the auditor: the per-file symbol index. Each scanned file yields
// a FileIndex — its harvested unordered-container symbols plus every
// annotation marker (`lint:guarded_by`, `lint:frozen`, `lint:hot`,
// `lint:allow`) and internal include edge. Pass 2 (audit.cpp) runs the rule
// families against the merged index. A FileIndex depends only on its own
// file's bytes.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "lint/scrub.hpp"

namespace cloudrtt::lint {

/// A field marked `// lint:guarded_by(guard)`: every access outside a scope
/// that locks `guard` (within the header + sibling .cpp) is a finding.
struct GuardedField {
  std::string owner;  ///< enclosing class/struct name
  std::string field;
  std::string guard;  ///< the mutex member named in the annotation
  std::string file;
  std::string stem;  ///< path without extension; pairs header with .cpp
  std::size_t line = 0;
};

/// A type marked `// lint:frozen`: deeply immutable after construction.
struct FrozenType {
  std::string name;
  std::string file;
  std::string stem;
  std::size_t line = 0;
};

/// A `// lint:hot` function body (byte range) or whole file
/// (`lint:hot(file)`): allocation and temporary-heavy constructs flagged.
struct HotRegion {
  std::string file;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string label;  ///< function name, or "file"
  std::size_t line = 0;
};

/// One `#include "module/..."` edge from a file under src/.
struct IncludeEdge {
  std::string from_module;
  std::string to_module;
  std::string header;  ///< the quoted include path
  std::size_t line = 0;
};

/// One `lint:allow(rule)` use, justified or not.
struct AllowUse {
  std::string rule;
  std::size_t line = 0;
  bool has_justification = false;
};

/// Everything pass 2 needs from one file, derived from its bytes alone.
struct FileIndex {
  // Unordered-container harvest feeding the unordered-iter rule.
  std::vector<std::string> unordered_vars;
  std::vector<std::string> unordered_fns;
  std::vector<std::string> unordered_aliases;
  std::vector<std::string> map_like;  ///< map-typed vars for map::operator[]

  std::vector<GuardedField> guarded;
  std::vector<FrozenType> frozen;
  std::vector<HotRegion> hot;
  std::vector<IncludeEdge> edges;
  std::vector<AllowUse> allows;
};

/// Harvest annotation markers and include edges for one file into `out`
/// (appends; the unordered_* members are filled by the linter's own
/// harvest). `shape` must be analyze_braces(scrubbed.code). With
/// `harvest_markers` false only include edges are collected — src/lint/'s
/// own sources document the annotation grammar in comments, so their
/// marker-shaped text must not register, but they still sit in the DAG.
void index_annotations(const std::string& path, std::string_view original,
                       const Scrubbed& scrubbed, const FileShape& shape,
                       bool harvest_markers, FileIndex& out);

}  // namespace cloudrtt::lint
