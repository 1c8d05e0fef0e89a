#pragma once
// Continent taxonomy used throughout the paper (AF, AS, EU, NA, OC, SA).

#include <array>
#include <optional>
#include <string_view>

namespace cloudrtt::geo {

enum class Continent : unsigned char {
  Africa,
  Asia,
  Europe,
  NorthAmerica,
  Oceania,
  SouthAmerica,
};

inline constexpr std::array<Continent, 6> kAllContinents{
    Continent::Africa,       Continent::Asia,    Continent::Europe,
    Continent::NorthAmerica, Continent::Oceania, Continent::SouthAmerica,
};

inline constexpr std::size_t kContinentCount = kAllContinents.size();

/// Two-letter code as used in the paper's figures ("AF", "AS", ...).
[[nodiscard]] constexpr std::string_view to_code(Continent c) noexcept {
  switch (c) {
    case Continent::Africa: return "AF";
    case Continent::Asia: return "AS";
    case Continent::Europe: return "EU";
    case Continent::NorthAmerica: return "NA";
    case Continent::Oceania: return "OC";
    case Continent::SouthAmerica: return "SA";
  }
  return "??";
}

[[nodiscard]] constexpr std::optional<Continent> continent_from_code(
    std::string_view code) noexcept {
  for (const Continent c : kAllContinents) {
    if (to_code(c) == code) return c;
  }
  return std::nullopt;
}

[[nodiscard]] constexpr std::size_t index_of(Continent c) noexcept {
  return static_cast<std::size_t>(c);
}

}  // namespace cloudrtt::geo
