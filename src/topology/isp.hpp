#pragma once
// Access (eyeball) ISPs: the networks hosting probes. Each country gets its
// case-study ISPs (if the paper names them) plus synthetic ones sized by
// probe density; each ISP owns a customer prefix (probe addresses), an
// infrastructure prefix (router addresses) and a CGN pool.

#include <cstddef>
#include <string>

#include "geo/continent.hpp"
#include "net/ipv4.hpp"
#include "topology/asn.hpp"

namespace cloudrtt::topology {

struct IspNetwork {
  Asn asn = 0;
  std::string name;
  std::string country;
  std::size_t index = 0;        ///< position in World::isps()
  std::size_t country_row = 0;  ///< `country`'s row in geo::CountryTable
  geo::Continent continent = geo::Continent::Europe;
  double share = 1.0;        ///< probe-assignment weight within the country
  bool named = false;        ///< appears in the paper's case studies
  net::Ipv4Prefix customer_prefix;
  net::Ipv4Prefix infra_prefix;
  net::Ipv4Prefix cgn_prefix;   ///< RFC 6598 slice, never announced
  double cgn_fraction = 0.0;    ///< subscribers behind carrier-grade NAT
};

}  // namespace cloudrtt::topology
