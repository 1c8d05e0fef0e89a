#pragma once
// Deterministic IPv4 prefix allocator.
//
// The synthetic RIR: hands out disjoint public /16..../24 blocks to ASes and
// individual addresses within a block. Allocation order is deterministic so
// a study seed fully determines the address plan.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "net/ipv4.hpp"

namespace cloudrtt::net {

class PrefixAllocator {
 public:
  /// Allocate from a pool that avoids special-purpose ranges; default pool
  /// starts in 5.0.0.0/8-ish space and grows upward.
  explicit PrefixAllocator(Ipv4Address pool_start = Ipv4Address{5, 0, 0, 0});

  /// Next free prefix of the given length (8..30). Throws on exhaustion.
  [[nodiscard]] Ipv4Prefix allocate(std::uint8_t length);

 private:
  std::uint64_t cursor_;  ///< first unallocated address (64-bit to spot exhaustion)
};

/// Hands out host addresses from inside one prefix, skipping the network
/// and broadcast addresses.
class HostAllocator {
 public:
  explicit HostAllocator(Ipv4Prefix prefix) : prefix_(prefix), next_(1) {}

  [[nodiscard]] Ipv4Address allocate();
  [[nodiscard]] std::uint64_t remaining() const;

 private:
  Ipv4Prefix prefix_;
  std::uint64_t next_;
};

}  // namespace cloudrtt::net
