#include "core/scale.hpp"

#include <charconv>
#include <cstdlib>

#include "core/study.hpp"

namespace cloudrtt::core {

namespace {

/// Strict full-string parse: std::from_chars consumes a prefix, so a
/// trailing garbage character means the spelling is not a probe count.
[[nodiscard]] bool parse_size(std::string_view text, std::size_t& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size() && out > 0;
}

}  // namespace

ScaleSpec parse_scale(std::string_view text) {
  ScaleSpec spec;
  if (text.empty() || text == "default") {
    return spec;
  }
  if (text == "paper") {
    spec.name = "paper";
    spec.sc_probes = 115000;
    spec.atlas_probes = 8500;
    return spec;
  }
  if (const std::size_t x = text.find('x'); x != std::string_view::npos) {
    std::size_t sc = 0;
    std::size_t atlas = 0;
    if (parse_size(text.substr(0, x), sc) &&
        parse_size(text.substr(x + 1), atlas)) {
      spec.name = std::string{text};
      spec.sc_probes = sc;
      spec.atlas_probes = atlas;
      return spec;
    }
  }
  spec.error = "unrecognised scale '" + std::string{text} +
               "' — expected default, paper or NxM probe counts (e.g. "
               "12000x3000)";
  return spec;
}

ScaleSpec resolve_scale(std::string_view flag_value) {
  const char* env = std::getenv("CLOUDRTT_SCALE");
  if (flag_value.empty() && env == nullptr) return ScaleSpec{};
  ScaleSpec spec = parse_scale(flag_value.empty() ? env : flag_value);
  if (!spec.ok()) {
    spec.error.insert(0, flag_value.empty() ? "CLOUDRTT_SCALE: " : "--scale: ");
  }
  return spec;
}

void apply_scale(StudyConfig& config, const ScaleSpec& spec) {
  config.sc_probes = spec.sc_probes;
  config.atlas_probes = spec.atlas_probes;
  config.sc_campaign.daily_budget = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             static_cast<double>(config.sc_campaign.daily_budget) *
             spec.sc_multiplier()));
  config.atlas_campaign.daily_budget = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             static_cast<double>(config.atlas_campaign.daily_budget) *
             spec.atlas_multiplier()));
}

}  // namespace cloudrtt::core
