#include "topology/as_registry.hpp"

#include <stdexcept>

namespace cloudrtt::topology {

namespace {

// Tier-1 / global carriers with the hub cities where they pick up and hand
// off traffic. Hub placement drives the path-detour behaviour of §6.2:
// the carriers named by the paper (Telia AS1299, GTT AS3257 for carrier
// peering; NTT AS2914 for in-Japan transit; TATA AS6453 for JP->IN) are all
// present with the right geography.
const std::vector<TransitCarrier> kTier1Carriers = {
    {1299, "Telia Carrier",
     {{"Stockholm", "SE", {59.33, 18.07}},
      {"Frankfurt", "DE", {50.11, 8.68}},
      {"London", "GB", {51.51, -0.13}},
      {"Marseille", "FR", {43.30, 5.37}},
      {"Ashburn", "US", {39.04, -77.49}}}},
    {3257, "GTT Communications",
     {{"Frankfurt", "DE", {50.11, 8.68}},
      {"London", "GB", {51.51, -0.13}},
      {"New York", "US", {40.71, -74.01}}}},
    {2914, "NTT Communications",
     {{"Tokyo", "JP", {35.68, 139.69}},
      {"Singapore", "SG", {1.35, 103.82}},
      {"Los Angeles", "US", {34.05, -118.24}},
      {"London", "GB", {51.51, -0.13}}}},
    {6453, "TATA Communications",
     {{"Mumbai", "IN", {19.08, 72.88}},
      {"Singapore", "SG", {1.35, 103.82}},
      {"Marseille", "FR", {43.30, 5.37}},
      {"Dubai", "AE", {25.20, 55.27}},
      {"New York", "US", {40.71, -74.01}}}},
    {174, "Cogent",
     {{"Washington DC", "US", {38.91, -77.04}},
      {"Frankfurt", "DE", {50.11, 8.68}},
      {"Paris", "FR", {48.86, 2.35}}}},
    {3356, "Lumen (Level 3)",
     {{"Denver", "US", {39.74, -104.99}},
      {"London", "GB", {51.51, -0.13}},
      {"Sao Paulo", "BR", {-23.55, -46.63}}}},
    {6762, "Telecom Italia Sparkle",
     {{"Milan", "IT", {45.46, 9.19}},
      {"Marseille", "FR", {43.30, 5.37}},
      {"Miami", "US", {25.76, -80.19}},
      {"Sao Paulo", "BR", {-23.55, -46.63}}}},
    {3491, "PCCW Global",
     {{"Hong Kong", "HK", {22.32, 114.17}},
      {"Singapore", "SG", {1.35, 103.82}},
      {"Los Angeles", "US", {34.05, -118.24}}}},
    {5511, "Orange International Carriers",
     {{"Paris", "FR", {48.86, 2.35}},
      {"Marseille", "FR", {43.30, 5.37}},
      {"Cairo", "EG", {30.10, 31.30}},
      {"Abidjan", "CI", {5.35, -4.02}}}},
    {6461, "Zayo",
     {{"Denver", "US", {39.74, -104.99}},
      {"Chicago", "US", {41.88, -87.63}},
      {"London", "GB", {51.51, -0.13}}}},
    // Regional wholesale carriers: without them every African/LatAm/Oceanian
    // path would hairpin to the nearest EU/US hub, which is wrong for the
    // in-continent traffic the paper measures (e.g. KE->ZA, AU->AU).
    {30844, "Liquid Telecom",
     {{"Johannesburg", "ZA", {-26.20, 28.05}},
      {"Nairobi", "KE", {-1.29, 36.82}},
      {"Lagos", "NG", {6.52, 3.38}},
      {"Cairo", "EG", {30.10, 31.30}}}},
    {12956, "Telxius",
     {{"Madrid", "ES", {40.42, -3.70}},
      {"Miami", "US", {25.76, -80.19}},
      {"Sao Paulo", "BR", {-23.55, -46.63}},
      {"Santiago", "CL", {-33.45, -70.67}}}},
    {4637, "Telstra Global",
     {{"Sydney", "AU", {-33.87, 151.21}},
      {"Auckland", "NZ", {-36.85, 174.76}},
      {"Singapore", "SG", {1.35, 103.82}},
      {"Tokyo", "JP", {35.68, 139.69}},
      {"Los Angeles", "US", {34.05, -118.24}}}},
};

// Case-study access ISPs, ASNs as printed in Figs. 12a, 13a, 17a, 18a.
const std::vector<NamedIsp> kNamedIsps = {
    // Germany (Fig. 12a)
    {3209, "Vodafone", "DE"},
    {3320, "Deutsche Telekom", "DE"},
    {6805, "Telefonica Germany", "DE"},
    {6830, "Liberty Global", "DE"},
    {8881, "1&1 Versatel", "DE"},
    // Japan (Fig. 13a)
    {2516, "KDDI", "JP"},
    {2518, "BIGLOBE", "JP"},
    {4713, "NTT OCN", "JP"},
    {17511, "OPTAGE", "JP"},
    {17676, "SoftBank", "JP"},
    // Ukraine (Fig. 17a)
    {3255, "UARnet", "UA"},
    {3326, "Datagroup", "UA"},
    {6849, "UKRTELNET", "UA"},
    {15895, "Kyivstar", "UA"},
    {25229, "Volia", "UA"},
    // Bahrain (Fig. 18a)
    {5416, "Batelco", "BH"},
    {31452, "ZAIN Bahrain", "BH"},
    {39273, "Kalaam Telecom", "BH"},
    {51375, "stc Bahrain", "BH"},
};

// Exchange fabrics; traceroute hops inside these prefixes are tagged via the
// CAIDA-IXP-like dataset and removed from AS-level paths (§6.1).
const std::vector<IxpInfo> kIxps = {
    {6695, "DE-CIX Frankfurt", "DE", {50.11, 8.68}},
    {1200, "AMS-IX", "NL", {52.37, 4.90}},
    {5459, "LINX", "GB", {51.51, -0.13}},
    {7527, "JPNAP", "JP", {35.68, 139.69}},
    {24115, "Equinix Singapore", "SG", {1.35, 103.82}},
    {33108, "IX.br Sao Paulo", "BR", {-23.55, -46.63}},
    {37195, "NAPAfrica", "ZA", {-26.20, 28.05}},
};

}  // namespace

std::span<const TransitCarrier> tier1_carriers() { return kTier1Carriers; }

std::vector<const NamedIsp*> named_isps_in(std::string_view country) {
  std::vector<const NamedIsp*> out;
  for (const NamedIsp& isp : kNamedIsps) {
    if (isp.country == country) out.push_back(&isp);
  }
  return out;
}

std::span<const IxpInfo> known_ixps() { return kIxps; }

const AsInfo& AsRegistry::add(AsInfo info) {
  if (contains(info.asn)) {
    throw std::logic_error{"AsRegistry: duplicate ASN " +
                           std::to_string(info.asn)};
  }
  index_.emplace(info.asn, infos_.size());
  infos_.push_back(std::move(info));
  return infos_.back();
}

const AsInfo* AsRegistry::find(Asn asn) const {
  const auto it = index_.find(asn);
  return it == index_.end() ? nullptr : &infos_[it->second];
}

const AsInfo& AsRegistry::at(Asn asn) const {
  const AsInfo* info = find(asn);
  if (info == nullptr) {
    throw std::out_of_range{"AsRegistry: unknown ASN " + std::to_string(asn)};
  }
  return *info;
}

}  // namespace cloudrtt::topology
