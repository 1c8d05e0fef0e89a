#pragma once
// Traceroute processing: AS-level path reduction, ISP-cloud interconnection
// classification (§6.1), wireless last-mile inference (§5), and path
// pervasiveness (Fig. 11). Everything is derived from hop addresses via the
// IpToAsn resolver, so the pipeline inherits the same artefacts the paper
// discusses (invisible IXP hops, unresponsive routers, CGN-confused
// home/cell classification).
//
// Each classifier reads a trace through its hop resolutions. A single call
// resolves them through the IpToAsn; a report derives every trace's
// TraceFacts once from a ResolutionTable (analysis/prepared.hpp), by the
// same code.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "analysis/resolve.hpp"
#include "measure/records.hpp"
#include "topology/interconnect.hpp"

namespace cloudrtt::analysis {

/// One trace's hop resolutions, parallel to its hops: nullopt for a hop that
/// did not respond, sits in private space or resolves nowhere.
using HopResolutions = std::span<const std::optional<Resolution>>;

/// Collapsed AS-level view of one traceroute.
struct AsPath {
  std::vector<topology::Asn> asns;  ///< consecutive duplicates collapsed
  bool crossed_ixp = false;         ///< an IXP LAN hop was visible
  bool used_whois = false;          ///< at least one hop needed the fallback
};

[[nodiscard]] AsPath as_level_path(const measure::TraceRef& trace,
                                   const IpToAsn& resolver);

/// Result of classifying the ISP->cloud interconnection of one trace.
struct InterconnectObservation {
  bool valid = false;               ///< ISP and cloud AS both visible
  topology::InterconnectMode mode = topology::InterconnectMode::Public;
  int intermediate_as_count = 0;    ///< distinct ASes between ISP and cloud
  bool crossed_ixp = false;
  topology::Asn isp_asn = 0;
  topology::Asn cloud_asn = 0;
};

/// Classify per §6.1: resolve hops, tag-and-remove IXPs, count the distinct
/// intermediate ASes between the serving ISP and the cloud WAN.
[[nodiscard]] InterconnectObservation classify_interconnect(
    const measure::TraceRef& trace, const IpToAsn& resolver);

/// The paper's home/cell inference (§5).
enum class AccessClass : unsigned char { Home, Cell, Unknown };

struct LastMileObservation {
  bool valid = false;
  AccessClass access = AccessClass::Unknown;
  double usr_isp_ms = 0.0;  ///< probe -> first public in-ISP hop
  /// Home only: home router -> ISP (the wired tail), USR minus the private
  /// first hop; nullopt when the private hop did not respond.
  std::optional<double> rtr_isp_ms;
};

[[nodiscard]] LastMileObservation infer_last_mile(const measure::TraceRef& trace,
                                                  const IpToAsn& resolver);

/// Share of responded+resolved routers owned by the *target* cloud AS
/// (Fig. 11); nullopt when the trace resolves too poorly to say.
[[nodiscard]] std::optional<double> pervasiveness(const measure::TraceRef& trace,
                                                  const IpToAsn& resolver);

/// What the exhibits read from one trace, derived in one walk over its hop
/// resolutions. Nine bytes, so a report keeps one per trace: the last-mile
/// RTTs stay in the trace's hops and are read back through their indices.
struct TraceFacts {
  static constexpr std::uint8_t kNoHop = 0xFF;

  bool interconnect_valid = false;  ///< classify_interconnect's verdict
  topology::InterconnectMode mode = topology::InterconnectMode::Public;
  bool target_resolved = false;
  std::uint8_t isp_hop = kNoHop;      ///< last-mile anchor: first public
                                      ///< hop that resolves
  std::uint8_t private_hop = kNoHop;  ///< first private hop before it
  std::uint8_t first_public_hop = kNoHop;  ///< Fig. 16's probe key
  std::uint8_t resolved_hops = 0;  ///< responded hops that resolve
  std::uint8_t whois_hops = 0;     ///< of those, through the whois fallback
  std::uint8_t cloud_hops = 0;     ///< of those, in the target's AS

  /// infer_last_mile's observation, read back from `trace`'s hops.
  [[nodiscard]] LastMileObservation last_mile(
      const measure::TraceRef& trace) const;
  /// pervasiveness()'s ratio.
  [[nodiscard]] std::optional<double> pervasiveness() const;
};

/// The facts of `trace` from its hop resolutions and its target's. A trace
/// has at most 255 hops (TTLs are a byte).
[[nodiscard]] TraceFacts derive_facts(const measure::TraceRef& trace,
                                      HopResolutions hops,
                                      const std::optional<Resolution>& target,
                                      const IpToAsn& resolver);

}  // namespace cloudrtt::analysis
