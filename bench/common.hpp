#pragma once
// Shared plumbing for the ablation, what-if and extension harnesses: the
// study `cloudrtt study` runs, at the scale and seed the environment names
// (the ext_* harnesses), the fixed study most ablations compare on, and
// small printing helpers. The paper's own exhibits are not harnesses:
// `cloudrtt study` writes them all to report.txt.
//
// Environment knobs, read by bench_config() only:
//   CLOUDRTT_SCALE  — fleet scale: default | paper (115k/8.5k probes) |
//                     NxM probe counts (see core/scale.hpp)
//   CLOUDRTT_SEED   — study seed (default 42)
// A malformed value ends the harness with one line naming the variable and
// exit status 1, as the CLI does for a malformed option.

#include <string>

#include "analysis/experiments.hpp"
#include "core/study.hpp"
#include "util/text.hpp"

namespace cloudrtt::bench {

/// `cloudrtt study`'s configuration at the environment's scale and seed.
[[nodiscard]] core::StudyConfig bench_config();

/// The fixed study the peering and uplink ablations and the 5G what-if run
/// each arm on: 4,000 Speedchecker probes, 6 days of 9,000 tasks, no Atlas,
/// seed 42. It reads no environment variable.
[[nodiscard]] core::StudyConfig ablation_config();

/// Build + run a study of bench_config() once per process.
[[nodiscard]] const core::Study& shared_study();

/// Print the standard harness header: exhibit id, what the paper showed,
/// and the study `config` the harness runs (its fleets, days, budgets and
/// seed).
void print_header(const std::string& exhibit, const std::string& claim,
                  const core::StudyConfig& config);

[[nodiscard]] std::string pct(double value);
[[nodiscard]] std::string ms(double value);

}  // namespace cloudrtt::bench
