#include "net/ipv4.hpp"

#include <charconv>

namespace cloudrtt::net {

char* Ipv4Address::append_to(char* out) const {
  for (int shift = 24; shift >= 0; shift -= 8) {
    const std::uint32_t octet = (value_ >> shift) & 0xffu;
    if (octet >= 100) *out++ = static_cast<char>('0' + octet / 100);
    if (octet >= 10) *out++ = static_cast<char>('0' + octet / 10 % 10);
    *out++ = static_cast<char>('0' + octet % 10);
    if (shift > 0) *out++ = '.';
  }
  return out;
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
  const auto [next, ec] =
      std::from_chars(len_text.data(), len_text.data() + len_text.size(), length);
  if (ec != std::errc{} || length > 32 || next != len_text.data() + len_text.size()) {
    return std::nullopt;
  }
  return Ipv4Prefix{*addr, static_cast<std::uint8_t>(length)};
}

}  // namespace cloudrtt::net
