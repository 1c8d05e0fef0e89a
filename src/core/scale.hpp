#pragma once
// Study scale as a first-class, nameable configuration (ISSUE 10).
//
// The paper measured from ~115,000 Speedchecker and ~8,500 Atlas probes; the
// repo's default is a 6,000/1,500 stand-in that keeps the tier-1 suite fast.
// A ScaleSpec names a point on that axis and is resolved in one place so the
// CLI flag, the CLOUDRTT_SCALE environment fallback, and the bench harnesses
// all agree on the spelling:
//
//   default   6,000 SC / 1,500 Atlas  (multiplier 1.0)
//   paper     115,000 SC / 8,500 Atlas — the paper's fleet, streamed
//   NxM       explicit probe counts, e.g. 12000x3000 (600x150 is a tenth of
//             the default fleet)
//
// Daily task budgets scale proportionally with each platform's probe count,
// so "paper" runs the paper's task volume, not just its fleet size.

#include <cstddef>
#include <string>
#include <string_view>

namespace cloudrtt::core {

struct StudyConfig;

struct ScaleSpec {
  std::string name = "default";  ///< canonical label for summaries/reports
  std::size_t sc_probes = 6000;
  std::size_t atlas_probes = 1500;
  std::string error;  ///< non-empty = the spec string did not parse
  [[nodiscard]] bool ok() const { return error.empty(); }
  /// Per-platform budget multipliers relative to the default fleet.
  [[nodiscard]] double sc_multiplier() const {
    return static_cast<double>(sc_probes) / 6000.0;
  }
  [[nodiscard]] double atlas_multiplier() const {
    return static_cast<double>(atlas_probes) / 1500.0;
  }
};

/// Parse one scale spelling: "default", "paper" or "NxM". Returns a spec
/// with `error` set on anything else.
[[nodiscard]] ScaleSpec parse_scale(std::string_view text);

/// Resolve the effective scale: a non-empty `flag_value` (the --scale flag)
/// wins, else the CLOUDRTT_SCALE environment variable, else "default". An
/// error names where the refused spelling came from (`--scale: ` or
/// `CLOUDRTT_SCALE: `).
[[nodiscard]] ScaleSpec resolve_scale(std::string_view flag_value);

/// Apply a spec to a StudyConfig: probe counts, plus daily budgets scaled
/// proportionally from the config's current values.
void apply_scale(StudyConfig& config, const ScaleSpec& spec);

}  // namespace cloudrtt::core
