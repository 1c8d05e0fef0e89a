// Unit tests for IPv4 types, special-range classification, the prefix
// allocator and the longest-prefix-match trie.

#include <gtest/gtest.h>

#include "net/allocator.hpp"
#include "net/ipv4.hpp"
#include "net/prefix_trie.hpp"

namespace cloudrtt::net {
namespace {

TEST(Ipv4Address, FormatAndParseRoundTrip) {
  const Ipv4Address addr{192, 0, 2, 17};
  EXPECT_EQ(addr.to_string(), "192.0.2.17");
  const auto parsed = Ipv4Address::parse("192.0.2.17");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, addr);
}

TEST(Ipv4Address, DottedQuadAtOctetWidthEdges) {
  EXPECT_EQ(Ipv4Address{0u}.to_string(), "0.0.0.0");
  EXPECT_EQ(Ipv4Address{0xffffffffu}.to_string(), "255.255.255.255");
  EXPECT_EQ((Ipv4Address{9, 10, 99, 100}).to_string(), "9.10.99.100");
  char buffer[Ipv4Address::kMaxChars];
  const Ipv4Address widest{255, 255, 255, 255};
  EXPECT_EQ(widest.append_to(buffer), buffer + Ipv4Address::kMaxChars);
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse("").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Address::parse("256.1.1.1").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.x").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1..2.3").has_value());
}

TEST(Ipv4Address, PrivateClassification) {
  EXPECT_TRUE(is_rfc1918(Ipv4Address{10, 1, 2, 3}));
  EXPECT_TRUE(is_rfc1918(Ipv4Address{172, 16, 0, 1}));
  EXPECT_TRUE(is_rfc1918(Ipv4Address{172, 31, 255, 255}));
  EXPECT_FALSE(is_rfc1918(Ipv4Address{172, 32, 0, 1}));
  EXPECT_TRUE(is_rfc1918(Ipv4Address{192, 168, 1, 1}));
  EXPECT_FALSE(is_rfc1918(Ipv4Address{192, 169, 1, 1}));

  EXPECT_TRUE(is_cgn(Ipv4Address{100, 64, 0, 1}));
  EXPECT_TRUE(is_cgn(Ipv4Address{100, 127, 255, 255}));
  EXPECT_FALSE(is_cgn(Ipv4Address{100, 128, 0, 0}));
  EXPECT_FALSE(is_cgn(Ipv4Address{100, 63, 255, 255}));

  EXPECT_TRUE(is_private(Ipv4Address{127, 0, 0, 1}));
  EXPECT_TRUE(is_private(Ipv4Address{169, 254, 10, 10}));
  EXPECT_FALSE(is_private(Ipv4Address{8, 8, 8, 8}));
}

TEST(Ipv4Prefix, ContainsAndSize) {
  const Ipv4Prefix prefix{Ipv4Address{10, 0, 0, 0}, 8};
  EXPECT_TRUE(prefix.contains(Ipv4Address{10, 255, 0, 1}));
  EXPECT_FALSE(prefix.contains(Ipv4Address{11, 0, 0, 1}));
  EXPECT_EQ(prefix.size(), 1ull << 24);
  EXPECT_EQ(prefix.to_string(), "10.0.0.0/8");
}

TEST(Ipv4Prefix, MasksHostBitsOnConstruction) {
  const Ipv4Prefix prefix{Ipv4Address{192, 0, 2, 200}, 24};
  EXPECT_EQ(prefix.base(), (Ipv4Address{192, 0, 2, 0}));
}

TEST(Ipv4Prefix, ParseRoundTrip) {
  const auto parsed = Ipv4Prefix::parse("198.51.100.0/24");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->length(), 24);
  EXPECT_FALSE(Ipv4Prefix::parse("198.51.100.0").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("198.51.100.0/33").has_value());
}

TEST(Ipv4Prefix, ZeroLengthMatchesEverything) {
  const Ipv4Prefix all{Ipv4Address{0, 0, 0, 0}, 0};
  EXPECT_TRUE(all.contains(Ipv4Address{255, 255, 255, 255}));
  EXPECT_TRUE(all.contains(Ipv4Address{0, 0, 0, 0}));
}

TEST(PrefixTrie, LongestPrefixWins) {
  PrefixTrie<int> trie;
  trie.insert(*Ipv4Prefix::parse("10.0.0.0/8"), 1);
  trie.insert(*Ipv4Prefix::parse("10.1.0.0/16"), 2);
  trie.insert(*Ipv4Prefix::parse("10.1.2.0/24"), 3);
  EXPECT_EQ(trie.lookup(*Ipv4Address::parse("10.9.9.9")), 1);
  EXPECT_EQ(trie.lookup(*Ipv4Address::parse("10.1.9.9")), 2);
  EXPECT_EQ(trie.lookup(*Ipv4Address::parse("10.1.2.9")), 3);
  EXPECT_FALSE(trie.lookup(*Ipv4Address::parse("11.0.0.1")).has_value());
}

TEST(PrefixTrie, ExactLookup) {
  PrefixTrie<int> trie;
  trie.insert(*Ipv4Prefix::parse("10.0.0.0/8"), 1);
  EXPECT_EQ(trie.lookup_exact(*Ipv4Prefix::parse("10.0.0.0/8")), 1);
  EXPECT_FALSE(trie.lookup_exact(*Ipv4Prefix::parse("10.0.0.0/9")).has_value());
}

TEST(PrefixTrie, EmptyTrie) {
  const PrefixTrie<int> trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_FALSE(trie.lookup(Ipv4Address{1, 2, 3, 4}).has_value());
}

TEST(PrefixTrie, OverwriteKeepsLatestValue) {
  PrefixTrie<int> trie;
  trie.insert(*Ipv4Prefix::parse("10.0.0.0/8"), 1);
  trie.insert(*Ipv4Prefix::parse("10.0.0.0/8"), 7);
  EXPECT_EQ(trie.lookup(Ipv4Address{10, 0, 0, 1}), 7);
}

TEST(PrefixAllocator, DisjointAllocations) {
  PrefixAllocator allocator;
  const Ipv4Prefix a = allocator.allocate(16);
  const Ipv4Prefix b = allocator.allocate(16);
  const Ipv4Prefix c = allocator.allocate(24);
  EXPECT_FALSE(a.contains(b.base()));
  EXPECT_FALSE(b.contains(a.base()));
  EXPECT_FALSE(a.contains(c.base()));
  EXPECT_FALSE(b.contains(c.base()));
}

TEST(PrefixAllocator, SkipsSpecialRanges) {
  // Allocate a lot and verify nothing private/multicast leaks out.
  PrefixAllocator allocator;
  for (int i = 0; i < 500; ++i) {
    const Ipv4Prefix p = allocator.allocate(16);
    EXPECT_FALSE(is_private(p.base())) << p.to_string();
    EXPECT_FALSE(is_private(p.address_at(p.size() - 1))) << p.to_string();
  }
}

TEST(PrefixAllocator, RejectsInvalidLength) {
  PrefixAllocator allocator;
  EXPECT_THROW((void)allocator.allocate(7), std::invalid_argument);
  EXPECT_THROW((void)allocator.allocate(31), std::invalid_argument);
}

TEST(HostAllocator, SkipsNetworkAddressAndExhausts) {
  HostAllocator alloc{*Ipv4Prefix::parse("192.0.2.0/30")};
  // /30 has 4 addresses; usable hosts exclude network (.0) and broadcast-ish
  // tail, leaving .1 and .2.
  const Ipv4Address first = alloc.allocate();
  EXPECT_EQ(first.to_string(), "192.0.2.1");
  const Ipv4Address second = alloc.allocate();
  EXPECT_EQ(second.to_string(), "192.0.2.2");
  EXPECT_EQ(alloc.remaining(), 0u);
  EXPECT_THROW((void)alloc.allocate(), std::runtime_error);
}

// Property sweep: random prefixes always contain their own address_at() and
// lookup resolves to the most specific inserted ancestor.
class TrieProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TrieProperty, ContainsOwnAddresses) {
  const std::uint32_t base = GetParam() * 0x01010101u;
  for (const int length_int : {8, 12, 16, 20, 24, 28}) {
    const auto length = static_cast<std::uint8_t>(length_int);
    const Ipv4Prefix prefix{Ipv4Address{base}, length};
    EXPECT_TRUE(prefix.contains(prefix.base()));
    EXPECT_TRUE(prefix.contains(prefix.address_at(prefix.size() - 1)));
  }
}

INSTANTIATE_TEST_SUITE_P(Bases, TrieProperty,
                         ::testing::Values(1u, 5u, 23u, 99u, 180u, 251u));

}  // namespace
}  // namespace cloudrtt::net
