#pragma once
// Plain-text rendering for report.txt and the harnesses: aligned tables,
// CDF and threshold tables mirroring the paper's figures, and CSV rows.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace cloudrtt::util {

/// Fixed-point formatting helper (avoids iostream state juggling).
[[nodiscard]] std::string format_double(double value, int decimals = 1);

/// Append `value` as 16 zero-padded lower-case hex digits: the one format of
/// every 64-bit hash the project prints (dataset hashes, store block
/// headers).
void append_hex16(std::string& out, std::uint64_t value);

/// Simple column-aligned table. First added row can be marked as header.
class TextTable {
 public:
  void set_header(std::vector<std::string> cells);
  void add_row(std::vector<std::string> cells);
  void add_rule();  ///< horizontal separator

  [[nodiscard]] std::string render() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool rule = false;
  };
  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

/// One labelled series of samples, e.g. one continent in Fig. 4.
struct Series {
  std::string label;
  std::vector<double> values;
};

/// Render a CDF table: one row per requested percentile, one column per
/// series — the textual equivalent of the paper's CDF figures.
[[nodiscard]] std::string render_cdf_table(const std::vector<Series>& series,
                                           const std::vector<double>& percentiles,
                                           const std::string& value_unit = "ms");

/// Fraction of each series below each threshold (e.g. MTP/HPL/HRT lines).
[[nodiscard]] std::string render_threshold_table(
    const std::vector<Series>& series, const std::vector<double>& thresholds,
    const std::string& value_unit = "ms");

/// A horizontal bar of `width` cells filled proportionally to value/maximum.
[[nodiscard]] std::string bar(double value, double maximum, std::size_t width = 24);

/// Write arbitrary rows as CSV with proper quoting.
void write_csv_row(std::ostream& out, const std::vector<std::string>& cells);

}  // namespace cloudrtt::util
