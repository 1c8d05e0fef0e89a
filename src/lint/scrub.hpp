#pragma once
// Shared lexical layer for cloudrtt-lint: the comment/string scrubber, token
// scanning helpers, and the brace-structure machinery both passes build on.
//
// The scanner is deliberately not a C++ parser. Every helper here works on
// "scrubbed" text — same byte length and line layout as the original file,
// with comments and literal contents blanked to spaces — so byte offsets map
// 1:1 between the two and findings can quote the original source line.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace cloudrtt::lint {

struct Scrubbed {
  std::string code;                   ///< same length/line layout as input
  std::vector<std::string> comments;  ///< comment text per 0-based line
};

/// Replace comments and literal contents with spaces, preserving newlines so
/// positions map 1:1 to the original text. Handles //, /*...*/, "...",
/// '...', and raw strings R"delim(...)delim". Digit separators (1'000) are
/// not treated as char literals.
[[nodiscard]] Scrubbed scrub(std::string_view text);

[[nodiscard]] bool is_ident_char(char ch);
[[nodiscard]] bool is_space(char ch);
[[nodiscard]] std::string_view trim(std::string_view text);

/// 1-based line number of a position in the scrubbed code.
[[nodiscard]] std::size_t line_of(std::string_view code, std::size_t pos);

/// Byte offset of the first character of 1-based line `line`; npos when the
/// file has fewer lines.
[[nodiscard]] std::size_t offset_of_line(std::string_view code,
                                         std::size_t line);

/// The trimmed source line containing `pos` (for finding snippets).
[[nodiscard]] std::string snippet_at(std::string_view original,
                                     std::string_view code, std::size_t pos);

/// Next occurrence of `token` at or after `from` with identifier boundaries
/// on both sides; npos when absent.
[[nodiscard]] std::size_t find_token(std::string_view code,
                                     std::string_view token, std::size_t from);

[[nodiscard]] std::size_t skip_spaces(std::string_view code, std::size_t pos);

/// Read an identifier (possibly qualified, A::b::c) starting at `pos`;
/// returns the last component and advances `pos` past the whole name.
[[nodiscard]] std::string read_qualified_ident(std::string_view code,
                                               std::size_t& pos);

/// With `pos` at the '<' opening a template argument list, return the
/// position just past the matching '>'; npos if unbalanced.
[[nodiscard]] std::size_t skip_template_args(std::string_view code,
                                             std::size_t pos);

// ---------------------------------------------------------------------------
// Path scoping

/// Normalise for suffix matching: backslashes to slashes.
[[nodiscard]] std::string normalise(std::string_view path);

/// True when the repo-relative `prefix` appears at a path-component boundary
/// anywhere in `path`, so absolute invocations scope identically.
[[nodiscard]] bool path_matches(std::string_view path, std::string_view prefix);

[[nodiscard]] bool is_header(std::string_view path);

/// Path without its extension ("src/routing/path_builder.hpp" ->
/// "src/routing/path_builder"). Annotation-driven rules enforce over the
/// header + sibling .cpp sharing one stem.
[[nodiscard]] std::string_view path_stem(std::string_view path);

// ---------------------------------------------------------------------------
// Brace structure

/// What an opening brace belongs to, decided by the statement text before it.
enum class BraceKind : unsigned char {
  Function,   ///< function/lambda body or a control-flow block inside one
  Type,       ///< class/struct/union/enum body
  Namespace,  ///< namespace body
  Other,      ///< initializer lists etc. — transparent, inherits the parent
};

/// Remove template-argument text between balanced <...> so keywords inside
/// parameter lists (`template <class T>`) don't confuse classification.
[[nodiscard]] std::string strip_angle_brackets(std::string_view text);

[[nodiscard]] BraceKind classify_brace(std::string_view code, std::size_t open);

/// True when the innermost non-transparent scope enclosing `stack` is a
/// function body (Other braces inherit their parent's classification).
[[nodiscard]] bool in_function_body(const std::vector<BraceKind>& stack);

/// One matched `{...}` pair plus its classification and nesting parent.
struct BraceInfo {
  std::size_t open = 0;
  std::size_t close = 0;  ///< position of the matching '}' (or code end)
  BraceKind kind = BraceKind::Other;
  int parent = -1;      ///< index of the enclosing pair, -1 at top level
  std::string name;     ///< Type: class name; Function: see function_name()
  bool is_class = false;  ///< Type pairs: `class` (default-private) vs struct
};

/// Every matched brace pair of a file, in opening order.
struct FileShape {
  std::vector<BraceInfo> braces;

  /// Index of the innermost pair containing `pos`, -1 when at top level.
  [[nodiscard]] int innermost(std::size_t pos) const;
  /// True when `pos` sits inside a function body (transparent braces skipped).
  [[nodiscard]] bool in_function(std::size_t pos) const;
  /// Close position of the innermost pair containing `pos`; `fallback` when
  /// `pos` is at top level.
  [[nodiscard]] std::size_t enclosing_close(std::size_t pos,
                                            std::size_t fallback) const;
};

[[nodiscard]] FileShape analyze_braces(std::string_view code);

/// Name of the function whose body opens at `open` ("" when the brace is a
/// control-flow block, lambda, or not a function at all). Understands
/// constructor member-init lists (`C::C(...) : a_{x}, b_(y) {`), returns the
/// unqualified last component, and prefixes destructors with '~'.
[[nodiscard]] std::string function_name_at(std::string_view code,
                                           std::size_t open);

}  // namespace cloudrtt::lint
