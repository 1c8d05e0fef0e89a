// Unit tests for the BGP route-propagation substrate.

#include <gtest/gtest.h>

#include <array>
#include <unordered_map>

#include "topology/bgp.hpp"
#include "topology/world.hpp"

namespace cloudrtt::topology {
namespace {

// A small hand-built hierarchy (10/20 tier-1 peer mesh; 100/200 customers
// of 10; 300 customer of 20; stubs 1000 under 100, 2000 under 200, 3000
// under 300) plus a direct peering 1000 <-> 3000.
class SmallGraph : public ::testing::Test {
 protected:
  SmallGraph() {
    graph_.add_peering(10, 20);
    graph_.add_customer_provider(100, 10);
    graph_.add_customer_provider(200, 10);
    graph_.add_customer_provider(300, 20);
    graph_.add_customer_provider(1000, 100);
    graph_.add_customer_provider(2000, 200);
    graph_.add_customer_provider(3000, 300);
    graph_.add_peering(1000, 3000);
  }
  BgpGraph graph_;
};

TEST_F(SmallGraph, CountsNodesAndEdges) {
  EXPECT_EQ(graph_.as_count(), 8u);
  EXPECT_EQ(graph_.edge_count(), 8u);
  EXPECT_TRUE(graph_.has_edge(10, 20));
  EXPECT_TRUE(graph_.has_edge(1000, 100));
  EXPECT_FALSE(graph_.has_edge(1000, 2000));
}

TEST_F(SmallGraph, DuplicateEdgesIgnored) {
  graph_.add_peering(10, 20);
  graph_.add_customer_provider(1000, 100);
  EXPECT_EQ(graph_.edge_count(), 8u);
}

TEST_F(SmallGraph, CustomerRouteClimbsProviders) {
  // From tier-1 10 towards stub 1000: 10 learned it from customer 100.
  const auto route = graph_.route(10, 1000);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->type, RouteType::Customer);
  EXPECT_EQ(route->as_path, (std::vector<Asn>{10, 100, 1000}));
}

TEST_F(SmallGraph, PeerRouteCrossesTheMeshOnce) {
  // 20 hears 1000 from its peer 10 (which has a customer route).
  const auto route = graph_.route(20, 1000);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->type, RouteType::Peer);
  EXPECT_EQ(route->as_path, (std::vector<Asn>{20, 10, 100, 1000}));
}

TEST_F(SmallGraph, ProviderRouteDescendsToStubs) {
  // 2000 reaches 1000 via its provider chain.
  const auto route = graph_.route(2000, 1000);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->type, RouteType::Provider);
  EXPECT_EQ(route->as_path, (std::vector<Asn>{2000, 200, 10, 100, 1000}));
}

TEST_F(SmallGraph, DirectPeeringShortCircuitsTransit) {
  // 3000 peers with 1000 directly: two ASes, no transit.
  const auto route = graph_.route(3000, 1000);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->type, RouteType::Peer);
  EXPECT_EQ(route->as_path, (std::vector<Asn>{3000, 1000}));
}

TEST_F(SmallGraph, PeerRoutesAreNotReExportedToPeers) {
  // 300 must NOT reach 2000 via [300, 20, 10, ...]: 20's route to 2000 is
  // peer-learned, which is never exported to another peer... but 300 is a
  // *customer* of 20, so it does get the route. Verify the type chain
  // instead: the route exists and is provider-learned.
  const auto via_provider = graph_.route(3000, 2000);
  ASSERT_TRUE(via_provider.has_value());
  EXPECT_EQ(via_provider->type, RouteType::Provider);
  // And it must be valley-free.
  EXPECT_TRUE(graph_.is_valley_free(via_provider->as_path));
}

TEST_F(SmallGraph, AllRoutesAreValleyFree) {
  const std::vector<Asn> all{10, 20, 100, 200, 300, 1000, 2000, 3000};
  for (const Asn from : all) {
    for (const Asn to : all) {
      const auto route = graph_.route(from, to);
      if (!route) continue;
      EXPECT_TRUE(graph_.is_valley_free(route->as_path))
          << from << " -> " << to;
      EXPECT_EQ(route->as_path.front(), from);
      EXPECT_EQ(route->as_path.back(), to);
    }
  }
}

TEST_F(SmallGraph, ValleyPathsAreRejected) {
  // Down then up: 100 -> 1000 -> 3000 -> 300 is a textbook valley (1000 and
  // 3000 are stubs; 1000->3000 is a peering, 3000->300 goes up).
  EXPECT_FALSE(graph_.is_valley_free({100, 1000, 3000, 300}));
  // Not even edges:
  EXPECT_FALSE(graph_.is_valley_free({1000, 2000}));
}

TEST_F(SmallGraph, CustomerPreferredOverPeerAndProvider) {
  // Give 20 a second, longer customer path to 1000 and verify it still
  // prefers the (shorter) peer route only if no customer route exists —
  // i.e. adding the customer edge flips the choice.
  graph_.add_customer_provider(1000, 300);  // 1000 multihomes to 300
  const auto route = graph_.route(20, 1000);
  ASSERT_TRUE(route.has_value());
  // Now 20 can learn 1000 from customer 300: customer-preferred despite the
  // equally-short peer alternative via 10.
  EXPECT_EQ(route->type, RouteType::Customer);
  EXPECT_EQ(route->as_path, (std::vector<Asn>{20, 300, 1000}));
}

TEST_F(SmallGraph, UnknownOriginHasNoRoutes) {
  EXPECT_FALSE(graph_.route(10, 999).has_value());
  EXPECT_TRUE(graph_.routes_to(999).empty());
}

// The world's business graph, with the decision process run once per cloud
// origin: route() per ISP would rerun the whole propagation ~4,000 times.
class WorldBgp : public ::testing::Test {
 protected:
  WorldBgp() {
    for (const cloud::ProviderId provider : cloud::kAllProviders) {
      routes_[cloud::provider_index(provider)] =
          graph_.routes_to(cloud::provider_info(provider).asn);
    }
  }

  /// Best route from `from` towards `provider`'s ASN; null when policy
  /// hides it.
  [[nodiscard]] const BgpRoute* route(Asn from,
                                      cloud::ProviderId provider) const {
    const auto& routes = routes_[cloud::provider_index(provider)];
    const auto it = routes.find(from);
    return it == routes.end() ? nullptr : &it->second;
  }

  /// Mean AS-path length over the ISPs that reach `provider`.
  [[nodiscard]] double mean_length(cloud::ProviderId provider) const {
    double sum = 0.0;
    std::size_t n = 0;
    for (const IspNetwork& isp : world_.isps()) {
      if (const BgpRoute* found = route(isp.asn, provider)) {
        sum += static_cast<double>(found->length());
        ++n;
      }
    }
    return sum / static_cast<double>(n);
  }

  World world_{WorldConfig{77}};
  const BgpGraph graph_ = BgpGraph::from_world(world_);
  std::array<std::unordered_map<Asn, BgpRoute>, cloud::kProviderCount>
      routes_;
};

TEST_F(WorldBgp, EveryIspReachesEveryCloud) {
  for (const cloud::ProviderId provider : cloud::kAllProviders) {
    const Asn cloud_asn = cloud::provider_info(provider).asn;
    // The origin is in the graph, so the decision process ran for it.
    ASSERT_NE(route(cloud_asn, provider), nullptr);
    for (const IspNetwork& isp : world_.isps()) {
      EXPECT_NE(route(isp.asn, provider), nullptr)
          << isp.name << " cannot reach "
          << cloud::provider_info(provider).ticker;
    }
  }
}

TEST_F(WorldBgp, AllIspToCloudRoutesAreValleyFree) {
  for (const cloud::ProviderId provider :
       {cloud::ProviderId::Amazon, cloud::ProviderId::Vultr,
        cloud::ProviderId::Ibm}) {
    for (const IspNetwork& isp : world_.isps()) {
      const BgpRoute* found = route(isp.asn, provider);
      ASSERT_NE(found, nullptr);
      EXPECT_TRUE(graph_.is_valley_free(found->as_path)) << isp.name;
    }
  }
}

TEST_F(WorldBgp, HypergiantsAreFlatterThanSmallClouds) {
  const double big3 = (mean_length(cloud::ProviderId::Amazon) +
                       mean_length(cloud::ProviderId::Google) +
                       mean_length(cloud::ProviderId::Microsoft)) /
                      3.0;
  const double small = (mean_length(cloud::ProviderId::Vultr) +
                        mean_length(cloud::ProviderId::Linode)) /
                       2.0;
  EXPECT_LT(big3, small - 0.5);
  EXPECT_LT(big3, 3.0);
  EXPECT_GT(small, 3.0);
}

TEST_F(WorldBgp, DirectPeeringShowsUpAsTwoAsPaths) {
  // Vodafone -> Microsoft is a direct peering in the paper's Fig. 12a.
  const BgpRoute* found = route(3209, cloud::ProviderId::Microsoft);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->length(), 2u);
  EXPECT_EQ(found->type, RouteType::Peer);
}

TEST_F(WorldBgp, BgpAgreesWithTracerouteModelOnPathLengthOrdering) {
  // The two independent models (policy-sampled forwarding vs BGP) must put
  // the same providers on the short side.
  EXPECT_LT(mean_length(cloud::ProviderId::Google),
            mean_length(cloud::ProviderId::Oracle));
  EXPECT_LT(mean_length(cloud::ProviderId::Amazon),
            mean_length(cloud::ProviderId::Alibaba));
}

}  // namespace
}  // namespace cloudrtt::topology
