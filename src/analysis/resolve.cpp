#include "analysis/resolve.hpp"

#include <bit>

#include "obs/metrics.hpp"

namespace cloudrtt::analysis {

namespace {

/// Resolver counters, resolved once, so resolve() makes no Registry lookup.
struct ResolveMetrics {
  obs::Counter& lookups;
  obs::Counter& misses;
  obs::Counter& whois_fallbacks;
  obs::Counter& ixp_hits;

  static ResolveMetrics& instance() {
    obs::Registry& r = obs::Registry::global();
    // lint:allow(local-static): bundle of atomic-counter references; magic-static init is thread-safe and the counters are lock-free
    static ResolveMetrics metrics{
        r.counter("resolve.lookups_total"),
        r.counter("resolve.misses_total"),
        r.counter("resolve.whois_fallbacks_total"),
        r.counter("resolve.ixp_hits_total"),
    };
    return metrics;
  }
};

}  // namespace

IpToAsn IpToAsn::from_world(const topology::World& world) {
  IpToAsn resolver;
  for (const topology::RibEntry& entry : world.rib_dump()) {
    resolver.add_rib(entry.prefix, entry.asn);
  }
  for (const topology::RibEntry& entry : world.whois_entries()) {
    resolver.add_whois(entry.prefix, entry.asn);
  }
  for (const topology::RibEntry& entry : world.ixp_prefixes()) {
    resolver.add_ixp(entry.prefix, entry.asn);
  }
  return resolver;
}

void IpToAsn::add_rib(const net::Ipv4Prefix& prefix, topology::Asn asn) {
  rib_.insert(prefix, asn);
}

void IpToAsn::add_whois(const net::Ipv4Prefix& prefix, topology::Asn asn) {
  whois_.insert(prefix, asn);
}

void IpToAsn::add_ixp(const net::Ipv4Prefix& prefix, topology::Asn asn) {
  ixp_.insert(prefix, asn);
  ixp_asns_.insert(asn);
}

std::optional<Resolution> IpToAsn::resolve(net::Ipv4Address addr) const {
  ResolveMetrics& metrics = ResolveMetrics::instance();
  metrics.lookups.inc();
  if (net::is_private(addr)) return std::nullopt;
  // IXP peering LANs are checked first: they are deliberately absent from
  // the RIB (CAIDA-style tagging).
  if (const auto ixp = ixp_.lookup(addr)) {
    metrics.ixp_hits.inc();
    return Resolution{*ixp, ResolutionSource::Rib, true};
  }
  if (const auto asn = rib_.lookup(addr)) {
    return Resolution{*asn, ResolutionSource::Rib, false};
  }
  if (const auto asn = whois_.lookup(addr)) {
    metrics.whois_fallbacks.inc();
    return Resolution{*asn, ResolutionSource::Whois, false};
  }
  metrics.misses.inc();
  return std::nullopt;
}

std::optional<Resolution> ResolutionTable::resolve(net::Ipv4Address addr) {
  if (2 * (resolutions_.size() + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home_slot(addr);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.entry == 0) {
      resolutions_.push_back(resolver_->resolve(addr));
      slot.addr = addr.value();
      slot.entry = static_cast<std::uint32_t>(resolutions_.size());
      return resolutions_.back();
    }
    if (slot.addr == addr.value()) return resolutions_[slot.entry - 1];
  }
}

std::size_t ResolutionTable::home_slot(net::Ipv4Address addr) const {
  // Fibonacci hashing: the product's top bits index the table.
  return static_cast<std::size_t>(
      (std::uint64_t{addr.value()} * 0x9E3779B97F4A7C15ull) >> shift_);
}

void ResolutionTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 1024 : old.size() * 2, Slot{});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.entry == 0) continue;
    std::size_t i = home_slot(net::Ipv4Address{slot.addr});
    while (slots_[i].entry != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

}  // namespace cloudrtt::analysis
