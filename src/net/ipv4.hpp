#pragma once
// IPv4 address and prefix value types.
//
// The simulator allocates public prefixes to ASes and private addresses to
// home routers / CGN segments; the analysis side then has to re-discover AS
// ownership from raw addresses exactly as the paper does with PyASN — so
// addresses are honest 32-bit values, not handles.

#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace cloudrtt::net {

class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t value) : value_(value) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  /// Longest dotted quad, "255.255.255.255".
  static constexpr std::size_t kMaxChars = 15;

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  /// Write the dotted quad at `out`, which has room for kMaxChars; returns
  /// one past the last character. Allocation-free (the CSV row encoder's
  /// path); to_string() wraps it.
  char* append_to(char* out) const;
  [[nodiscard]] std::string to_string() const;

  /// Parse dotted-quad; nullopt on malformed input.
  [[nodiscard]] static std::optional<Ipv4Address> parse(std::string_view text);

  friend constexpr auto operator<=>(const Ipv4Address&, const Ipv4Address&) = default;

 private:
  std::uint32_t value_ = 0;
};

/// RFC 1918 private space (10/8, 172.16/12, 192.168/16).
[[nodiscard]] constexpr bool is_rfc1918(Ipv4Address addr) {
  const std::uint32_t v = addr.value();
  return (v & 0xff000000u) == 0x0a000000u ||    // 10.0.0.0/8
         (v & 0xfff00000u) == 0xac100000u ||    // 172.16.0.0/12
         (v & 0xffff0000u) == 0xc0a80000u;      // 192.168.0.0/16
}

/// RFC 6598 carrier-grade NAT space (100.64.0.0/10).
[[nodiscard]] constexpr bool is_cgn(Ipv4Address addr) {
  return (addr.value() & 0xffc00000u) == 0x64400000u;
}

/// "Private" in the sense of the paper's home/cell classifier: any address
/// that cannot appear in the public routing table (RFC1918 + CGN + loopback
/// + link-local).
[[nodiscard]] constexpr bool is_private(Ipv4Address addr) {
  const std::uint32_t v = addr.value();
  return is_rfc1918(addr) || is_cgn(addr) ||
         (v & 0xff000000u) == 0x7f000000u ||    // 127.0.0.0/8
         (v & 0xffff0000u) == 0xa9fe0000u;      // 169.254.0.0/16
}

class Ipv4Prefix {
 public:
  constexpr Ipv4Prefix() = default;
  /// Network bits below the mask are zeroed on construction.
  constexpr Ipv4Prefix(Ipv4Address base, std::uint8_t length)
      : base_(Ipv4Address{length == 0 ? 0u : (base.value() & mask_for(length))}),
        length_(length) {}

  [[nodiscard]] constexpr Ipv4Address base() const { return base_; }
  [[nodiscard]] constexpr std::uint8_t length() const { return length_; }

  [[nodiscard]] constexpr bool contains(Ipv4Address addr) const {
    if (length_ == 0) return true;
    return (addr.value() & mask_for(length_)) == base_.value();
  }

  [[nodiscard]] constexpr std::uint64_t size() const {
    return 1ULL << (32 - length_);
  }

  /// The i-th address of the prefix (i < size()).
  [[nodiscard]] constexpr Ipv4Address address_at(std::uint64_t i) const {
    return Ipv4Address{base_.value() + static_cast<std::uint32_t>(i)};
  }

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static std::optional<Ipv4Prefix> parse(std::string_view text);

  friend constexpr bool operator==(const Ipv4Prefix&, const Ipv4Prefix&) = default;

 private:
  static constexpr std::uint32_t mask_for(std::uint8_t length) {
    return length == 0 ? 0u : ~0u << (32 - length);
  }

  Ipv4Address base_{};
  std::uint8_t length_ = 0;
};

}  // namespace cloudrtt::net
