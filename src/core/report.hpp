#pragma once
// Full study report: every reproduced exhibit as JSON, so the results can
// be re-plotted outside C++ (the repository's analogue of the paper's
// published dataset + scripts), and optionally as the text the paper's
// tables and figures read as (`cloudrtt study`'s report.txt).

#include <iosfwd>

#include "analysis/prepared.hpp"

namespace cloudrtt::core {

/// Write a single JSON document containing every table/figure result
/// (Table 1, Figs. 3-19, §3.3 stats). A StudyView converts to the
/// PreparedStudy implicitly, preparing it for this call.
///
/// With `text`, also write every exhibit there as text, in paper order
/// (Table 1, Figs. 1/2/14, §3.3, Figs. 3-13, 15-19), each under a header
/// naming it and what the paper shows, from the same computation of each
/// exhibit. Figs. 5 and 16 are empty without Atlas data, and a share whose
/// denominator is zero reads "-".
void write_full_report(std::ostream& out, const analysis::PreparedStudy& study,
                       std::ostream* text = nullptr);

}  // namespace cloudrtt::core
