#pragma once
// Experiment drivers: one function per table/figure of the paper. Each
// returns structured rows so the reports can print them and integration
// tests can assert the paper's qualitative findings on them. Each reads a
// PreparedStudy (analysis/prepared.hpp), which a StudyView converts to. The
// per-exhibit mapping lives in DESIGN.md §3.

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/prepared.hpp"
#include "analysis/trace_analysis.hpp"
#include "cloud/provider.hpp"
#include "geo/continent.hpp"
#include "util/stats.hpp"
#include "util/text.hpp"

namespace cloudrtt::analysis {

// Latency thresholds of §2.1 used throughout.
inline constexpr double kMtpMs = 20.0;   ///< Motion-to-Photon
inline constexpr double kHplMs = 100.0;  ///< Human Perceivable Latency
inline constexpr double kHrtMs = 250.0;  ///< Human Reaction Time

// ---------------------------------------------------------------------------
// Fig. 3 — median RTT to the closest in-continent DC per country.
struct CountryLatencyRow {
  std::string_view country;
  std::string_view name;
  geo::Continent continent = geo::Continent::Europe;
  double median_ms = 0.0;
  std::size_t samples = 0;
  std::string_view bucket;  ///< "<30" / "30-60" / "60-100" / "100-250" / ">250"
};
[[nodiscard]] std::vector<CountryLatencyRow> fig3_country_latency(
    const PreparedStudy&);
[[nodiscard]] std::string_view latency_bucket(double median_ms);

// Fig. 4 — all RTT samples to the nearest in-continent DC, per continent.
[[nodiscard]] std::vector<util::Series> fig4_continent_rtt(
    const PreparedStudy&);

// Fig. 5 — quantile-matched Speedchecker-minus-Atlas latency differences per
// continent (negative = Speedchecker faster).
[[nodiscard]] std::vector<util::Series> fig5_platform_diff(
    const PreparedStudy&);

// Fig. 6 — per-country RTT distributions to nearest DCs in several target
// continents (AF -> {EU, NA, AF}; SA -> {NA, SA}).
struct InterContinentalCell {
  std::string_view src_country;
  geo::Continent dst_continent = geo::Continent::Europe;
  util::Summary summary;
};
[[nodiscard]] std::vector<InterContinentalCell> fig6_intercontinental(
    const PreparedStudy&, geo::Continent src_continent);

// Fig. 15 (A.2) — TCP vs ICMP end-to-end latencies per continent.
struct ProtocolCompareRow {
  geo::Continent continent = geo::Continent::Europe;
  util::Summary tcp;
  util::Summary icmp;
};
[[nodiscard]] std::vector<ProtocolCompareRow> fig15_protocols(
    const PreparedStudy&);

// Fig. 16 (A.3) — platform differences restricted to probes matched by
// <city, first-hop ASN>; AS/EU/NA only (insufficient intersections elsewhere).
[[nodiscard]] std::vector<util::Series> fig16_city_asn_diff(
    const PreparedStudy&);

// ---------------------------------------------------------------------------
// Figs. 7 / 19 — wireless last-mile share and absolute latency.
enum class LastMileCategory : unsigned char {
  HomeUsrIsp,  ///< SC home (USR-ISP)
  Cell,        ///< SC cell
  HomeRtrIsp,  ///< SC home (RTR-ISP)
  Atlas,       ///< RIPE Atlas wired
};
inline constexpr std::array<LastMileCategory, 4> kLastMileCategories{
    LastMileCategory::HomeUsrIsp, LastMileCategory::Cell,
    LastMileCategory::HomeRtrIsp, LastMileCategory::Atlas};
[[nodiscard]] std::string_view to_string(LastMileCategory category);

/// Index 0..5 = continents, 6 = Global.
inline constexpr std::size_t kGlobalIndex = geo::kContinentCount;
struct LastMileStats {
  std::array<std::array<std::vector<double>, geo::kContinentCount + 1>, 4> share_pct;
  std::array<std::array<std::vector<double>, geo::kContinentCount + 1>, 4> absolute_ms;

  [[nodiscard]] const std::vector<double>& share(LastMileCategory c,
                                                 std::size_t idx) const {
    return share_pct[static_cast<std::size_t>(c)][idx];
  }
  [[nodiscard]] const std::vector<double>& absolute(LastMileCategory c,
                                                    std::size_t idx) const {
    return absolute_ms[static_cast<std::size_t>(c)][idx];
  }
};
/// `nearest_only` restricts to traces towards the probe's nearest DC (Fig. 19).
[[nodiscard]] LastMileStats lastmile_stats(const PreparedStudy&,
                                          bool nearest_only);

// Figs. 8 / 9 — per-probe coefficient of variation of last-mile latency.
struct CvGroup {
  std::string label;
  std::vector<double> home;  ///< Cv per home-classified probe (>=10 samples)
  std::vector<double> cell;
  bool home_sufficient = true;  ///< enough home probes to report (Fig. 9 note)
};
[[nodiscard]] std::vector<CvGroup> fig8_cv_by_continent(
    const PreparedStudy&);
/// Representative countries as in Fig. 9: ZA MA JP IR GB UA US MX BR AR.
[[nodiscard]] std::vector<CvGroup> fig9_cv_by_country(const PreparedStudy&);

// ---------------------------------------------------------------------------
// Fig. 10 — interconnection-type share per provider (global, SC traces).
struct InterconnectShareRow {
  std::string_view ticker;
  double direct_pct = 0.0;  ///< direct + direct-over-IXP (IXPs removed)
  double one_as_pct = 0.0;
  double multi_as_pct = 0.0;
  std::size_t paths = 0;
};
[[nodiscard]] std::vector<InterconnectShareRow> fig10_interconnect_share(
    const PreparedStudy&);

// Fig. 11 — pervasiveness (cloud-owned router share) per provider/continent.
struct PervasivenessRow {
  std::string_view ticker;
  std::array<std::optional<double>, geo::kContinentCount> median_by_continent;
};
[[nodiscard]] std::vector<PervasivenessRow> fig11_pervasiveness(
    const PreparedStudy&);

// Figs. 12/13/17/18 — case studies: peering matrix + latency by mode.
struct PeeringMatrixCell {
  bool has_data = false;
  topology::InterconnectMode majority = topology::InterconnectMode::Public;
  double majority_pct = 0.0;
  std::size_t paths = 0;
};
struct PeeringMatrixRow {
  std::string isp_label;  ///< "Vodafone (AS 3209)"
  topology::Asn asn = 0;
  std::array<PeeringMatrixCell, 9> cells;  ///< kPeeringFigureProviders order
};
struct PeeringLatencyRow {
  std::string_view ticker;
  bool valid = false;  ///< enough samples in both groups
  util::Summary direct;        ///< direct (+IXP) peering paths
  util::Summary intermediate;  ///< 1-AS and 2+-AS paths
};
struct PeeringCaseStudy {
  std::string_view src_country;
  std::string_view dst_country;
  std::vector<PeeringMatrixRow> matrix;
  std::vector<PeeringLatencyRow> latency;
};
[[nodiscard]] PeeringCaseStudy peering_case_study(const PreparedStudy&,
                                                  std::string_view src_country,
                                                  std::string_view dst_country,
                                                  std::size_t min_cell_paths = 15);

// ---------------------------------------------------------------------------
// §3.3 — methodology statistics.
struct MethodologyStats {
  std::size_t ping_count = 0;
  std::size_t trace_count = 0;
  std::array<double, geo::kContinentCount> continent_sample_share{};
  double tcp_median_ms = 0.0;
  double icmp_median_ms = 0.0;
  double tcp_vs_icmp_gap_pct = 0.0;  ///< (icmp - tcp) / icmp * 100
  std::size_t required_samples_per_country = 0;  ///< n = z^2 p(1-p)/eps^2
  double whois_fallback_share_pct = 0.0;  ///< hops resolved via whois
};
[[nodiscard]] MethodologyStats sec33_stats(const PreparedStudy&);

// Helper shared by Figs. 5/16: quantile-matched differences between two
// sample sets (positive = `b` faster, i.e. a - b at matched quantiles).
[[nodiscard]] std::vector<double> quantile_differences(std::vector<double> a,
                                                       std::vector<double> b,
                                                       std::size_t points = 200);

}  // namespace cloudrtt::analysis
