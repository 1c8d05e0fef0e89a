#include "net/allocator.hpp"

namespace cloudrtt::net {

PrefixAllocator::PrefixAllocator(Ipv4Address pool_start)
    : cursor_(pool_start.value()) {}

Ipv4Prefix PrefixAllocator::allocate(std::uint8_t length) {
  if (length < 8 || length > 30) {
    throw std::invalid_argument{"PrefixAllocator: length must be in [8, 30]"};
  }
  const std::uint64_t block = 1ULL << (32 - length);
  // Align the cursor to the block size so the prefix is valid.
  std::uint64_t base = (cursor_ + block - 1) & ~(block - 1);
  while (true) {
    if (base + block > (1ULL << 32)) {
      throw std::runtime_error{"PrefixAllocator: IPv4 pool exhausted"};
    }
    const Ipv4Prefix candidate{Ipv4Address{static_cast<std::uint32_t>(base)}, length};
    // Skip anything that overlaps special-purpose space; the pool start
    // already avoids most, but large allocations can run into them.
    const bool collides = is_private(candidate.base()) ||
                          is_private(candidate.address_at(block - 1)) ||
                          (candidate.base().value() & 0xf0000000u) == 0xe0000000u;
    if (!collides) {
      cursor_ = base + block;
      return candidate;
    }
    base += block;
  }
}

Ipv4Address HostAllocator::allocate() {
  if (remaining() == 0) {
    throw std::runtime_error{"HostAllocator: prefix exhausted: " + prefix_.to_string()};
  }
  return prefix_.address_at(next_++);
}

std::uint64_t HostAllocator::remaining() const {
  const std::uint64_t usable = prefix_.size() > 2 ? prefix_.size() - 1 : prefix_.size();
  return next_ >= usable ? 0 : usable - next_;
}

}  // namespace cloudrtt::net
