#pragma once
// IP -> ASN resolution: the PyASN / Team Cymru / CAIDA-IXP pipeline of §3.3.
//
// The resolver is bootstrapped from the same kinds of inputs the paper used:
// a RIB dump (announced prefixes), registration (whois) data for prefixes
// that are routed but not announced, and the IXP peering-LAN prefix list.
// Analysis code resolves every traceroute hop through this class; it never
// reads ground truth off the simulator.

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "net/ipv4.hpp"
#include "net/prefix_trie.hpp"
#include "topology/asn.hpp"
#include "topology/world.hpp"

namespace cloudrtt::analysis {

enum class ResolutionSource : unsigned char { Rib, Whois };

struct Resolution {
  topology::Asn asn = 0;
  ResolutionSource source = ResolutionSource::Rib;
  bool is_ixp = false;

  friend bool operator==(const Resolution&, const Resolution&) = default;
};

class IpToAsn {
 public:
  IpToAsn() = default;

  /// Bootstrap from the world's public data products (RIB dump, whois
  /// registry, IXP prefix list).
  [[nodiscard]] static IpToAsn from_world(const topology::World& world);

  void add_rib(const net::Ipv4Prefix& prefix, topology::Asn asn);
  void add_whois(const net::Ipv4Prefix& prefix, topology::Asn asn);
  void add_ixp(const net::Ipv4Prefix& prefix, topology::Asn asn);

  /// Longest-prefix match over the RIB, falling back to whois; nullopt for
  /// private space and unknown addresses.
  [[nodiscard]] std::optional<Resolution> resolve(net::Ipv4Address addr) const;

  [[nodiscard]] bool is_ixp_asn(topology::Asn asn) const {
    return ixp_asns_.contains(asn);
  }

 private:
  net::PrefixTrie<topology::Asn> rib_;
  net::PrefixTrie<topology::Asn> whois_;
  net::PrefixTrie<topology::Asn> ixp_;
  std::unordered_set<topology::Asn> ixp_asns_;
};

/// Each distinct address a report looks up, resolved once. The first
/// resolve() of an address asks the IpToAsn and keeps its answer; every
/// later one probes a flat open-addressed table, with no trie walk. A
/// report's traces repeat a few thousand router and VM addresses millions
/// of times, so the resolver's counters count distinct addresses.
class ResolutionTable {
 public:
  explicit ResolutionTable(const IpToAsn& resolver) : resolver_(&resolver) {}

  /// Exactly IpToAsn::resolve(addr).
  [[nodiscard]] std::optional<Resolution> resolve(net::Ipv4Address addr);

  /// Distinct addresses resolved so far.
  [[nodiscard]] std::size_t size() const { return resolutions_.size(); }

  [[nodiscard]] const IpToAsn& resolver() const { return *resolver_; }

 private:
  struct Slot {
    std::uint32_t addr = 0;
    std::uint32_t entry = 0;  ///< index into resolutions_ + 1; 0 = empty
  };
  [[nodiscard]] std::size_t home_slot(net::Ipv4Address addr) const;
  void grow();

  const IpToAsn* resolver_;
  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  unsigned shift_ = 64;      ///< 64 - log2(slots_.size())
  std::vector<std::optional<Resolution>> resolutions_;
};

}  // namespace cloudrtt::analysis
