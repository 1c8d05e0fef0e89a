#include "util/text.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace cloudrtt::util {

std::string format_double(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

void append_hex16(std::string& out, std::uint64_t value) {
  char digits[16];
  for (int i = 15; i >= 0; --i) {
    digits[i] = "0123456789abcdef"[value & 0xfu];
    value >>= 4;
  }
  out.append(digits, sizeof digits);
}

void TextTable::set_header(std::vector<std::string> cells) { header_ = std::move(cells); }

void TextTable::add_row(std::vector<std::string> cells) {
  rows_.push_back(Row{std::move(cells), false});
}

void TextTable::add_rule() { rows_.push_back(Row{{}, true}); }

std::string TextTable::render() const {
  std::vector<std::size_t> widths;
  auto absorb = [&widths](const std::vector<std::string>& cells) {
    if (cells.size() > widths.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  absorb(header_);
  for (const Row& row : rows_) absorb(row.cells);

  std::size_t total = 0;
  for (const std::size_t w : widths) total += w + 2;

  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string{};
      out << cell << std::string(widths[i] - cell.size() + 2, ' ');
    }
    out << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    out << std::string(total, '-') << '\n';
  }
  for (const Row& row : rows_) {
    if (row.rule) {
      out << std::string(total, '-') << '\n';
    } else {
      emit(row.cells);
    }
  }
  return out.str();
}

std::string render_cdf_table(const std::vector<Series>& series,
                             const std::vector<double>& percentiles,
                             const std::string& value_unit) {
  TextTable table;
  std::vector<std::string> header{"pct"};
  std::vector<EmpiricalCdf> cdfs;
  cdfs.reserve(series.size());
  for (const Series& s : series) {
    header.push_back(s.label + " [" + value_unit + "]");
    cdfs.emplace_back(s.values);
  }
  table.set_header(std::move(header));
  for (const double p : percentiles) {
    // Appended, not `"p" + ...`: GCC 12 at -O3 flags that concatenation
    // with -Wrestrict.
    std::vector<std::string> row{
        std::string{"p"}.append(format_double(p * 100.0, 0))};
    for (const EmpiricalCdf& cdf : cdfs) {
      row.push_back(cdf.empty() ? "-" : format_double(cdf.quantile(p), 1));
    }
    table.add_row(std::move(row));
  }
  return table.render();
}

std::string render_threshold_table(const std::vector<Series>& series,
                                   const std::vector<double>& thresholds,
                                   const std::string& value_unit) {
  TextTable table;
  std::vector<std::string> header{"series"};
  for (const double t : thresholds) {
    header.push_back("<= " + format_double(t, 0) + value_unit);
  }
  header.emplace_back("n");
  table.set_header(std::move(header));
  for (const Series& s : series) {
    const EmpiricalCdf cdf{s.values};
    std::vector<std::string> row{s.label};
    for (const double t : thresholds) {
      row.push_back(format_double(cdf.evaluate(t) * 100.0, 1) + "%");
    }
    row.push_back(std::to_string(cdf.size()));
    table.add_row(std::move(row));
  }
  return table.render();
}

std::string bar(double value, double maximum, std::size_t width) {
  if (maximum <= 0.0) return std::string(width, ' ');
  const double frac = std::clamp(value / maximum, 0.0, 1.0);
  const auto filled = static_cast<std::size_t>(std::lround(frac * static_cast<double>(width)));
  std::string out(filled, '#');
  out.append(width - filled, '.');
  return out;
}

void write_csv_row(std::ostream& out, const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out << ',';
    const std::string& cell = cells[i];
    const bool needs_quotes = cell.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quotes) {
      out << cell;
      continue;
    }
    out << '"';
    for (const char ch : cell) {
      if (ch == '"') out << '"';
      out << ch;
    }
    out << '"';
  }
  out << '\n';
}

}  // namespace cloudrtt::util
