#include "net/ipv4.hpp"

#include <array>
#include <charconv>
#include <cstring>

namespace cloudrtt::net {

namespace {

/// An octet's digits and the dot after it ("255."); `size` counts the dot.
struct Octet {
  std::array<char, 4> text{};
  std::uint8_t size = 0;
};

[[nodiscard]] constexpr std::array<Octet, 256> make_octets() {
  std::array<Octet, 256> octets{};
  for (unsigned value = 0; value < octets.size(); ++value) {
    Octet& octet = octets[value];
    std::size_t at = 0;
    if (value >= 100) octet.text[at++] = static_cast<char>('0' + value / 100);
    if (value >= 10) {
      octet.text[at++] = static_cast<char>('0' + value / 10 % 10);
    }
    octet.text[at++] = static_cast<char>('0' + value % 10);
    octet.text[at++] = '.';
    octet.size = static_cast<std::uint8_t>(at);
  }
  return octets;
}

constexpr std::array<Octet, 256> kOctets = make_octets();

}  // namespace

char* Ipv4Address::append_to(char* out) const {
  // The first three octets copy four bytes each, dot included, and end at
  // most 12 bytes in; the last copies its digits only.
  for (int shift = 24; shift > 0; shift -= 8) {
    const Octet& octet = kOctets[(value_ >> shift) & 0xffu];
    std::memcpy(out, octet.text.data(), octet.text.size());
    out += octet.size;
  }
  const Octet& last = kOctets[value_ & 0xffu];
  std::memcpy(out, last.text.data(), last.size - 1u);
  return out + last.size - 1;
}

std::string Ipv4Address::to_string() const {
  char buffer[kMaxChars];
  return std::string(buffer, append_to(buffer));
}

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view text) {
  std::uint32_t value = 0;
  const char* cursor = text.data();
  const char* end = text.data() + text.size();
  for (int octet = 0; octet < 4; ++octet) {
    unsigned part = 0;
    const auto [next, ec] = std::from_chars(cursor, end, part);
    if (ec != std::errc{} || part > 255 || next == cursor) return std::nullopt;
    value = (value << 8) | part;
    cursor = next;
    if (octet < 3) {
      if (cursor == end || *cursor != '.') return std::nullopt;
      ++cursor;
    }
  }
  if (cursor != end) return std::nullopt;
  return Ipv4Address{value};
}

std::string Ipv4Prefix::to_string() const {
  return base_.to_string() + "/" + std::to_string(length_);
}

std::optional<Ipv4Prefix> Ipv4Prefix::parse(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = Ipv4Address::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  unsigned length = 0;
  const std::string_view len_text = text.substr(slash + 1);
  const char* const end = len_text.data() + len_text.size();
  const auto [next, ec] = std::from_chars(len_text.data(), end, length);
  if (ec != std::errc{} || length > 32 || next != end) return std::nullopt;
  return Ipv4Prefix{*addr, static_cast<std::uint8_t>(length)};
}

}  // namespace cloudrtt::net
