#pragma once
// Forwarding paths: the ground-truth router-level route a packet takes from
// a probe to a cloud VM, with deterministic base RTT and accumulated jitter
// accounted per hop. The measurement engine layers last-mile samples,
// congestion noise and traceroute artefacts on top; the analysis pipeline
// only ever sees the resulting hop/IP lists.

#include <cstddef>
#include <vector>

#include "geo/coords.hpp"
#include "net/ipv4.hpp"
#include "topology/asn.hpp"
#include "topology/interconnect.hpp"

namespace cloudrtt::routing {

struct RouterHop {
  net::Ipv4Address ip;
  topology::Asn asn = 0;          ///< ground-truth owner
  geo::GeoPoint location;
  bool is_private = false;        ///< RFC1918/CGN hop (home router, CGN gw)
  bool cloud_owned = false;       ///< owned by the target provider's WAN
  double base_rtt_ms = 0.0;       ///< probe->hop RTT, excluding last-mile/noise
  double noise_abs_ms = 0.0;      ///< accumulated absolute jitter (1 sigma)
  /// ECMP sibling interface: transit segments are load-balanced, and classic
  /// per-TTL traceroute may be answered by either interface (the Paris
  /// traceroute problem, Augustin et al. — cited by the paper's §2.1/§3.3
  /// caveats). Zero when the segment has a single forwarding path.
  net::Ipv4Address alt_ip{};
  [[nodiscard]] bool has_alt() const { return alt_ip.value() != 0; }
};

struct ForwardingPath {
  std::vector<RouterHop> hops;    ///< first post-probe hop ... target VM
  topology::InterconnectMode mode = topology::InterconnectMode::Public;

  [[nodiscard]] const RouterHop& target() const { return hops.back(); }
  [[nodiscard]] double base_rtt_ms() const { return hops.back().base_rtt_ms; }
  [[nodiscard]] double noise_abs_ms() const { return hops.back().noise_abs_ms; }
  [[nodiscard]] std::size_t cloud_owned_hops() const {
    std::size_t n = 0;
    for (const RouterHop& hop : hops) n += hop.cloud_owned ? 1 : 0;
    return n;
  }
};

}  // namespace cloudrtt::routing
