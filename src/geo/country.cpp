#include "geo/country.hpp"

#include <stdexcept>
#include <string>

#include "util/check.hpp"

namespace cloudrtt::geo {

namespace {

using C = Continent;

// Columns: code, name, continent, {lat, lon}, spread_km,
//          sc_weight, atlas_weight, cell_fraction, backhaul_quality.
//
// sc_weight / atlas_weight are calibrated so that per-continent sums track
// Fig. 1b (EU 72K, AS 31K, NA 5.4K, AF 4K, SA 2.8K, OC 351) and Fig. 2
// (EU 5574, AS 1083, NA 866, AF 261, SA 216, OC 289). Within-continent
// skews encode the deployment biases the paper leans on: >80 % of SC's SA
// probes in Brazil vs ~40 % for Atlas; Atlas Africa concentrated in the
// south (ZA) while SC Africa is cellular-heavy in the north; DE/GB/IR/JP
// with 5000+ SC probes.
constexpr CountryInfo kCountries[] = {
    // ---- Europe ----------------------------------------------------------
    {"DE", "Germany", C::Europe, {51.2, 10.4}, 320, 9500, 1200, 0.40, 0.92},
    {"GB", "Great Britain", C::Europe, {53.0, -1.5},
     300, 7500, 550, 0.40, 0.92},
    {"FR", "France", C::Europe, {46.6, 2.5}, 400, 5200, 620, 0.40, 0.92},
    {"IT", "Italy", C::Europe, {42.8, 12.5}, 450, 4600, 260, 0.45, 0.85},
    {"ES", "Spain", C::Europe, {40.2, -3.7}, 420, 4200, 210, 0.45, 0.85},
    {"PL", "Poland", C::Europe, {52.0, 19.3}, 350, 3600, 190, 0.45, 0.82},
    {"UA", "Ukraine", C::Europe, {49.0, 31.5}, 450, 3600, 120, 0.45, 0.72},
    {"RU", "Russia", C::Europe, {55.7, 37.6}, 1500, 6200, 310, 0.45, 0.72},
    {"NL", "Netherlands", C::Europe, {52.2, 5.3}, 120, 2600, 520, 0.35, 0.95},
    {"SE", "Sweden", C::Europe, {59.6, 16.0}, 500, 2100, 210, 0.40, 0.93},
    {"NO", "Norway", C::Europe, {60.5, 9.0}, 500, 1200, 110, 0.40, 0.92},
    {"FI", "Finland", C::Europe, {61.0, 25.5}, 450, 1200, 130, 0.40, 0.92},
    {"DK", "Denmark", C::Europe, {55.9, 9.9}, 150, 1200, 120, 0.40, 0.93},
    {"BE", "Belgium", C::Europe, {50.8, 4.5}, 120, 1600, 210, 0.40, 0.92},
    {"CH", "Switzerland", C::Europe, {46.9, 8.2}, 150, 1600, 260, 0.35, 0.94},
    {"AT", "Austria", C::Europe, {47.6, 14.1}, 200, 1500, 180, 0.40, 0.90},
    {"CZ", "Czechia", C::Europe, {49.9, 15.3}, 200, 1800, 200, 0.40, 0.88},
    {"RO", "Romania", C::Europe, {45.9, 25.0}, 300, 2600, 90, 0.45, 0.80},
    {"HU", "Hungary", C::Europe, {47.2, 19.4}, 180, 1500, 80, 0.45, 0.82},
    {"PT", "Portugal", C::Europe, {39.6, -8.0}, 220, 1600, 85, 0.45, 0.84},
    {"GR", "Greece", C::Europe, {38.7, 22.5}, 280, 1800, 80, 0.50, 0.76},
    {"BG", "Bulgaria", C::Europe, {42.7, 25.2}, 220, 1300, 70, 0.45, 0.78},
    {"RS", "Serbia", C::Europe, {44.2, 20.9}, 180, 1000, 45, 0.45, 0.75},
    {"SK", "Slovakia", C::Europe, {48.7, 19.5}, 160, 800, 50, 0.45, 0.84},
    {"HR", "Croatia", C::Europe, {45.5, 16.0}, 180, 700, 40, 0.45, 0.80},
    {"IE", "Ireland", C::Europe, {53.3, -7.7}, 180, 950, 90, 0.40, 0.90},
    {"LT", "Lithuania", C::Europe, {55.2, 23.9}, 150, 550, 35, 0.40, 0.84},
    {"LV", "Latvia", C::Europe, {56.9, 24.6}, 150, 450, 30, 0.40, 0.83},
    {"EE", "Estonia", C::Europe, {58.7, 25.5}, 130, 350, 35, 0.40, 0.86},
    {"SI", "Slovenia", C::Europe, {46.1, 14.8}, 100, 420, 35, 0.40, 0.84},
    {"BA", "Bosnia and Herzegovina", C::Europe, {44.0, 17.8},
     150, 420, 15, 0.50, 0.68},
    {"AL", "Albania", C::Europe, {41.1, 20.1}, 120, 320, 8, 0.55, 0.62},
    {"MK", "North Macedonia", C::Europe, {41.6, 21.7}, 100, 300, 8, 0.50, 0.66},
    {"MD", "Moldova", C::Europe, {47.2, 28.5}, 120, 420, 12, 0.50, 0.68},
    {"BY", "Belarus", C::Europe, {53.7, 27.9}, 280, 850, 20, 0.45, 0.70},
    {"IS", "Iceland", C::Europe, {64.1, -21.8}, 120, 120, 25, 0.40, 0.88},
    {"LU", "Luxembourg", C::Europe, {49.6, 6.1}, 40, 160, 30, 0.35, 0.94},
    {"CY", "Cyprus", C::Europe, {35.0, 33.2}, 80, 280, 15, 0.50, 0.74},
    {"MT", "Malta", C::Europe, {35.9, 14.4}, 20, 130, 10, 0.45, 0.78},
    {"ME", "Montenegro", C::Europe, {42.7, 19.3}, 80, 180, 6, 0.50, 0.66},
    // ---- Asia ------------------------------------------------------------
    {"IR", "Iran", C::Asia, {35.7, 51.4}, 700, 5600, 35, 0.60, 0.50},
    {"JP", "Japan", C::Asia, {36.0, 138.0}, 600, 5400, 150, 0.45, 0.93},
    {"IN", "India", C::Asia, {22.0, 79.0}, 1300, 3600, 110, 0.65, 0.55},
    {"TR", "Turkey", C::Asia, {39.0, 33.0}, 700, 2300, 85, 0.55, 0.65},
    {"ID", "Indonesia", C::Asia, {-6.2, 106.8}, 1200, 1900, 65, 0.60, 0.52},
    {"TH", "Thailand", C::Asia, {14.5, 100.8}, 500, 1300, 40, 0.55, 0.62},
    {"VN", "Vietnam", C::Asia, {16.0, 107.5}, 700, 1300, 20, 0.55, 0.58},
    {"MY", "Malaysia", C::Asia, {3.5, 102.0}, 450, 1000, 30, 0.50, 0.66},
    {"PH", "Philippines", C::Asia, {13.5, 122.0}, 700, 1300, 25, 0.60, 0.50},
    {"SG", "Singapore", C::Asia, {1.35, 103.8}, 25, 750, 85, 0.40, 0.95},
    {"KR", "South Korea", C::Asia, {36.8, 127.5}, 250, 1000, 40, 0.40, 0.93},
    {"CN", "China", C::Asia, {32.0, 112.0}, 1500, 600, 25, 0.50, 0.72},
    {"TW", "Taiwan", C::Asia, {23.8, 121.0}, 180, 700, 40, 0.40, 0.88},
    {"HK", "Hong Kong", C::Asia, {22.3, 114.2}, 30, 520, 55, 0.40, 0.92},
    {"SA", "Saudi Arabia", C::Asia, {24.0, 45.0}, 900, 950, 18, 0.60, 0.60},
    {"AE", "United Arab Emirates", C::Asia, {24.4, 54.4},
     200, 850, 40, 0.50, 0.72},
    {"IL", "Israel", C::Asia, {31.8, 35.0}, 120, 750, 80, 0.45, 0.82},
    {"IQ", "Iraq", C::Asia, {33.2, 43.7}, 450, 650, 6, 0.70, 0.40},
    {"PK", "Pakistan", C::Asia, {30.0, 70.0}, 800, 950, 25, 0.65, 0.45},
    {"BD", "Bangladesh", C::Asia, {23.8, 90.4}, 300, 650, 18, 0.65, 0.45},
    {"LK", "Sri Lanka", C::Asia, {7.0, 80.8}, 180, 420, 12, 0.55, 0.55},
    {"KZ", "Kazakhstan", C::Asia, {48.0, 68.0}, 1200, 520, 20, 0.55, 0.55},
    {"BH", "Bahrain", C::Asia, {26.1, 50.55}, 20, 320, 6, 0.55, 0.65},
    {"KW", "Kuwait", C::Asia, {29.3, 47.9}, 80, 320, 8, 0.55, 0.62},
    {"QA", "Qatar", C::Asia, {25.3, 51.4}, 60, 260, 8, 0.50, 0.70},
    {"OM", "Oman", C::Asia, {23.0, 57.0}, 400, 260, 6, 0.55, 0.58},
    {"JO", "Jordan", C::Asia, {31.3, 36.5}, 200, 370, 10, 0.55, 0.58},
    {"LB", "Lebanon", C::Asia, {33.9, 35.7}, 80, 320, 8, 0.55, 0.50},
    {"NP", "Nepal", C::Asia, {27.9, 84.2}, 300, 260, 10, 0.60, 0.42},
    {"MM", "Myanmar", C::Asia, {19.8, 96.1}, 500, 210, 5, 0.65, 0.38},
    {"KH", "Cambodia", C::Asia, {12.0, 105.0}, 250, 210, 6, 0.60, 0.42},
    {"GE", "Georgia", C::Asia, {41.9, 44.1}, 200, 320, 15, 0.50, 0.60},
    {"AM", "Armenia", C::Asia, {40.2, 44.7}, 120, 260, 10, 0.50, 0.58},
    {"AZ", "Azerbaijan", C::Asia, {40.4, 49.0}, 250, 370, 10, 0.55, 0.56},
    {"UZ", "Uzbekistan", C::Asia, {41.0, 65.0}, 500, 320, 8, 0.55, 0.48},
    // ---- North America ----------------------------------------------------
    {"US", "United States", C::NorthAmerica, {39.0, -95.0},
     2000, 4200, 600, 0.40, 0.92},
    {"MX", "Mexico", C::NorthAmerica, {21.0, -100.0}, 900, 900, 35, 0.55, 0.62},
    {"CA", "Canada", C::NorthAmerica, {46.5, -80.0},
     1500, 1000, 200, 0.40, 0.90},
    {"GT", "Guatemala", C::NorthAmerica, {15.5, -90.3},
     200, 130, 6, 0.60, 0.48},
    {"CR", "Costa Rica", C::NorthAmerica, {9.9, -84.1},
     150, 140, 12, 0.50, 0.58},
    {"PA", "Panama", C::NorthAmerica, {9.0, -79.5}, 150, 120, 8, 0.50, 0.60},
    {"DO", "Dominican Republic", C::NorthAmerica, {18.8, -70.2},
     150, 160, 6, 0.55, 0.50},
    {"HN", "Honduras", C::NorthAmerica, {14.7, -87.0}, 180, 110, 4, 0.60, 0.44},
    {"SV", "El Salvador", C::NorthAmerica, {13.7, -89.2},
     90, 110, 4, 0.60, 0.46},
    {"NI", "Nicaragua", C::NorthAmerica, {12.5, -86.0}, 180, 90, 3, 0.60, 0.42},
    {"JM", "Jamaica", C::NorthAmerica, {18.1, -77.3}, 90, 110, 4, 0.55, 0.50},
    {"TT", "Trinidad and Tobago", C::NorthAmerica, {10.6, -61.3},
     60, 120, 5, 0.55, 0.52},
    {"PR", "Puerto Rico", C::NorthAmerica, {18.3, -66.4},
     80, 160, 8, 0.45, 0.66},
    {"CU", "Cuba", C::NorthAmerica, {22.0, -79.5}, 400, 60, 2, 0.65, 0.30},
    {"BS", "Bahamas", C::NorthAmerica, {25.0, -77.4}, 100, 40, 3, 0.50, 0.52},
    // ---- Africa -----------------------------------------------------------
    {"EG", "Egypt", C::Africa, {30.1, 31.3}, 350, 820, 6, 0.85, 0.48},
    {"DZ", "Algeria", C::Africa, {35.2, 2.0}, 500, 520, 3, 0.85, 0.42},
    {"MA", "Morocco", C::Africa, {33.0, -6.8}, 350, 520, 6, 0.85, 0.48},
    {"TN", "Tunisia", C::Africa, {36.1, 9.6}, 180, 310, 4, 0.80, 0.48},
    {"NG", "Nigeria", C::Africa, {8.7, 8.0}, 600, 360, 8, 0.75, 0.38},
    {"ZA", "South Africa", C::Africa, {-28.5, 25.0}, 600, 470, 185, 0.25, 0.62},
    {"KE", "Kenya", C::Africa, {-0.5, 37.0}, 350, 260, 12, 0.70, 0.45},
    {"GH", "Ghana", C::Africa, {6.8, -1.2}, 250, 160, 4, 0.70, 0.40},
    {"SN", "Senegal", C::Africa, {14.7, -16.5}, 200, 130, 6, 0.75, 0.40},
    {"ET", "Ethiopia", C::Africa, {9.0, 39.5}, 450, 130, 3, 0.80, 0.25},
    {"TZ", "Tanzania", C::Africa, {-6.5, 35.5}, 450, 110, 6, 0.75, 0.36},
    {"UG", "Uganda", C::Africa, {0.6, 32.5}, 250, 110, 5, 0.75, 0.36},
    {"CI", "Ivory Coast", C::Africa, {6.8, -5.3}, 250, 110, 4, 0.75, 0.38},
    {"CM", "Cameroon", C::Africa, {4.8, 11.8}, 350, 110, 3, 0.80, 0.30},
    {"SD", "Sudan", C::Africa, {15.6, 32.5}, 500, 90, 2, 0.85, 0.22},
    {"LY", "Libya", C::Africa, {31.5, 17.0}, 450, 70, 2, 0.85, 0.28},
    {"MU", "Mauritius", C::Africa, {-20.2, 57.5}, 30, 70, 10, 0.45, 0.58},
    {"ZW", "Zimbabwe", C::Africa, {-18.5, 30.0}, 250, 70, 4, 0.70, 0.35},
    {"MZ", "Mozambique", C::Africa, {-18.0, 35.0}, 500, 50, 3, 0.75, 0.32},
    {"AO", "Angola", C::Africa, {-10.5, 14.5}, 400, 70, 3, 0.75, 0.34},
    {"RW", "Rwanda", C::Africa, {-1.9, 30.0}, 80, 50, 5, 0.70, 0.42},
    // ---- South America -----------------------------------------------------
    {"BR", "Brazil", C::SouthAmerica, {-22.0, -47.0},
     1000, 2750, 70, 0.50, 0.66},
    {"AR", "Argentina", C::SouthAmerica, {-34.6, -58.4},
     800, 140, 55, 0.50, 0.60},
    {"CO", "Colombia", C::SouthAmerica, {4.6, -74.1}, 450, 115, 28, 0.55, 0.55},
    {"CL", "Chile", C::SouthAmerica, {-33.4, -70.6}, 900, 105, 35, 0.50, 0.64},
    {"PE", "Peru", C::SouthAmerica, {-12.0, -77.0}, 500, 105, 10, 0.55, 0.48},
    {"VE", "Venezuela", C::SouthAmerica, {10.2, -66.9},
     400, 102, 5, 0.60, 0.35},
    {"EC", "Ecuador", C::SouthAmerica, {-1.5, -78.5}, 250, 102, 10, 0.55, 0.48},
    {"BO", "Bolivia", C::SouthAmerica, {-16.5, -65.0}, 400, 102, 5, 0.60, 0.45},
    {"UY", "Uruguay", C::SouthAmerica, {-34.8, -56.2}, 180, 35, 10, 0.45, 0.62},
    {"PY", "Paraguay", C::SouthAmerica, {-25.3, -57.6}, 250, 25, 5, 0.55, 0.45},
    // ---- Oceania ------------------------------------------------------------
    {"AU", "Australia", C::Oceania, {-35.0, 147.0}, 900, 220, 180, 0.40, 0.88},
    {"NZ", "New Zealand", C::Oceania, {-40.5, 174.5},
     400, 110, 100, 0.40, 0.86},
    {"FJ", "Fiji", C::Oceania, {-17.8, 178.0}, 80, 25, 9, 0.55, 0.45},
    // ---- Long tail ----------------------------------------------------------
    // Below the paper's 100-probe scheduling threshold: these countries host
    // probes (the platform covers ~140-170 countries) but never make the
    // per-country exhibits — the same situation as in the real study.
    {"MN", "Mongolia", C::Asia, {47.9, 106.9}, 500, 90, 2, 0.60, 0.40},
    {"LA", "Laos", C::Asia, {18.0, 103.0}, 300, 80, 2, 0.60, 0.38},
    {"KG", "Kyrgyzstan", C::Asia, {41.4, 74.8}, 250, 90, 2, 0.55, 0.42},
    {"TJ", "Tajikistan", C::Asia, {38.6, 69.0}, 200, 70, 1, 0.60, 0.35},
    {"AF", "Afghanistan", C::Asia, {34.5, 69.2}, 400, 95, 1, 0.75, 0.22},
    {"YE", "Yemen", C::Asia, {15.4, 44.2}, 350, 60, 1, 0.75, 0.18},
    {"SY", "Syria", C::Asia, {34.8, 38.0}, 250, 70, 1, 0.65, 0.25},
    {"CD", "DR Congo", C::Africa, {-3.0, 23.0}, 800, 80, 2, 0.80, 0.20},
    {"ZM", "Zambia", C::Africa, {-14.0, 28.0}, 350, 70, 3, 0.70, 0.32},
    {"NA", "Namibia", C::Africa, {-22.5, 17.5}, 400, 50, 4, 0.60, 0.40},
    {"BW", "Botswana", C::Africa, {-23.0, 24.0}, 300, 40, 3, 0.60, 0.42},
    {"MW", "Malawi", C::Africa, {-13.8, 34.0}, 250, 40, 2, 0.75, 0.26},
    {"MG", "Madagascar", C::Africa, {-19.5, 46.5}, 450, 60, 2, 0.70, 0.30},
    {"BF", "Burkina Faso", C::Africa, {12.3, -1.7}, 250, 40, 1, 0.80, 0.24},
    {"ML", "Mali", C::Africa, {14.5, -5.0}, 450, 40, 1, 0.80, 0.22},
    {"TG", "Togo", C::Africa, {8.5, 1.0}, 150, 30, 1, 0.75, 0.30},
    {"BJ", "Benin", C::Africa, {9.5, 2.3}, 180, 30, 1, 0.75, 0.30},
    {"GA", "Gabon", C::Africa, {-0.7, 11.7}, 250, 30, 1, 0.65, 0.34},
    {"BZ", "Belize", C::NorthAmerica, {17.2, -88.6}, 100, 30, 1, 0.55, 0.40},
    {"HT", "Haiti", C::NorthAmerica, {18.9, -72.4}, 120, 40, 1, 0.70, 0.20},
    {"BB", "Barbados", C::NorthAmerica, {13.1, -59.6}, 20, 40, 2, 0.50, 0.54},
    {"GY", "Guyana", C::SouthAmerica, {6.5, -58.5}, 200, 25, 2, 0.60, 0.35},
    {"SR", "Suriname", C::SouthAmerica, {5.0, -55.5}, 150, 25, 2, 0.55, 0.38},
    {"PG", "Papua New Guinea", C::Oceania, {-6.5, 146.0},
     400, 30, 1, 0.70, 0.25},
    {"NC", "New Caledonia", C::Oceania, {-21.3, 165.5}, 150, 20, 2, 0.50, 0.50},
};

constexpr std::size_t kNoSlot = 26 * 26;

/// Index slot of a two-letter upper-case code, or kNoSlot for anything else.
[[nodiscard]] std::size_t slot_of(std::string_view code) {
  if (code.size() != 2) return kNoSlot;
  // Unsigned wrap-around sends every byte below 'A' past 25 as well.
  const std::size_t first =
      static_cast<unsigned char>(code[0]) - std::size_t{'A'};
  const std::size_t second =
      static_cast<unsigned char>(code[1]) - std::size_t{'A'};
  if (first >= 26 || second >= 26) return kNoSlot;
  return first * 26 + second;
}

}  // namespace

CountryTable::CountryTable(std::span<const CountryInfo> rows)
    : countries_(rows.begin(), rows.end()) {
  for (const CountryInfo& c : countries_) {
    const std::size_t slot = slot_of(c.code);
    CLOUDRTT_CHECK(slot != kNoSlot, "country code '", c.code,
                   "' is not two upper-case letters");
    CLOUDRTT_CHECK(index_[slot] == nullptr, "duplicate country code '",
                   c.code, "'");
    index_[slot] = &c;
    total_sc_weight_ += c.sc_weight;
    total_atlas_weight_ += c.atlas_weight;
    sc_by_continent_[index_of(c.continent)] += c.sc_weight;
    atlas_by_continent_[index_of(c.continent)] += c.atlas_weight;
  }
}

const CountryTable& CountryTable::instance() {
  static const CountryTable table{kCountries};
  return table;
}

const CountryInfo* CountryTable::find(std::string_view code) const {
  const std::size_t slot = slot_of(code);
  return slot == kNoSlot ? nullptr : index_[slot];
}

const CountryInfo& CountryTable::at(std::string_view code) const {
  const CountryInfo* info = find(code);
  if (info == nullptr) {
    throw std::out_of_range{"unknown country code: " + std::string{code}};
  }
  return *info;
}

double CountryTable::continent_sc_weight(Continent c) const {
  return sc_by_continent_[index_of(c)];
}

double CountryTable::continent_atlas_weight(Continent c) const {
  return atlas_by_continent_[index_of(c)];
}

}  // namespace cloudrtt::geo
