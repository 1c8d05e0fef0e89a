#include "common.hpp"

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "core/scale.hpp"

namespace cloudrtt::bench {

namespace {

[[noreturn]] void refuse(std::string_view variable, const std::string& why) {
  std::cerr << variable << ": " << why << "\n";
  std::exit(1);
}

[[nodiscard]] core::ScaleSpec bench_scale() {
  core::ScaleSpec spec = core::resolve_scale("");
  if (!spec.ok()) {
    std::cerr << spec.error << "\n";  // names CLOUDRTT_SCALE already
    std::exit(1);
  }
  return spec;
}

}  // namespace

core::StudyConfig bench_config() {
  core::StudyConfig config;
  if (const char* env = std::getenv("CLOUDRTT_SEED")) {
    const std::string_view text{env};
    const char* const end = text.data() + text.size();
    std::uint64_t seed = 0;
    const auto [stop, failure] = std::from_chars(text.data(), end, seed);
    if (failure != std::errc{} || stop != end) {
      refuse("CLOUDRTT_SEED",
             "expected an unsigned integer, got '" + std::string{text} + "'");
    }
    config.seed = seed;
  }
  core::apply_scale(config, bench_scale());
  return config;
}

core::StudyConfig ablation_config() {
  core::StudyConfig config;
  config.sc_probes = 4000;
  config.sc_campaign.days = 6;
  config.sc_campaign.daily_budget = 9000;
  config.include_atlas = false;
  return config;
}

const core::Study& shared_study() {
  static core::Study study = [] {
    core::Study s{bench_config()};
    s.run();
    return s;
  }();
  return study;
}

void print_header(const std::string& exhibit, const std::string& claim,
                  const core::StudyConfig& config) {
  const auto campaign = [](std::size_t probes,
                           const measure::CampaignConfig& c) {
    return std::to_string(probes) + " probes, " + std::to_string(c.days) +
           " days of " + std::to_string(c.daily_budget) + " tasks";
  };
  std::cout << "==============================================================\n";
  std::cout << exhibit << "\n";
  std::cout << "paper: " << claim << "\n";
  std::cout << "study: Speedchecker "
            << campaign(config.sc_probes, config.sc_campaign) << "; Atlas "
            << (config.include_atlas
                    ? campaign(config.atlas_probes, config.atlas_campaign)
                    : std::string{"off"})
            << "; seed " << config.seed << "\n";
  std::cout << "==============================================================\n";
}

std::string pct(double value) { return util::format_double(value, 1) + "%"; }
std::string ms(double value) { return util::format_double(value, 1); }

}  // namespace cloudrtt::bench
