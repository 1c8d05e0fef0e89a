#include "store/codec.hpp"

#include <bit>
#include <charconv>
#include <cstring>
#include <span>

#include "cloud/region.hpp"
#include "net/ipv4.hpp"
#include "topology/interconnect.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/text.hpp"

namespace cloudrtt::store {

namespace {

// The payload is raw little-endian bytes; a big-endian port would need
// byte-swapping in put_raw/get_raw before its stores interoperate.
static_assert(std::endian::native == std::endian::little,
              "store payload codec assumes a little-endian host");

void append_u64(std::string& out, std::uint64_t value) {
  char buffer[24];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  CLOUDRTT_DCHECK(ec == std::errc{}, "u64 to_chars cannot fail");
  out.append(buffer, ptr);
}

template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T& out, int base = 10) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out, base);
  return ec == std::errc{} && ptr == text.data() + text.size() &&
         !text.empty();
}

/// `key=value` scanner for the header line; returns false when `key` is not
/// the next token.
[[nodiscard]] bool take_field(std::string_view& rest, std::string_view key,
                              std::string_view& value) {
  if (!rest.starts_with(key) || rest.size() <= key.size() ||
      rest[key.size()] != '=') {
    return false;
  }
  rest.remove_prefix(key.size() + 1);
  const std::size_t space = rest.find(' ');
  value = rest.substr(0, space);
  rest.remove_prefix(space == std::string_view::npos ? rest.size()
                                                     : space + 1);
  return true;
}

// -- fixed-layout payload primitives ----------------------------------------
// One memcpy per field: the serializer runs on the spill worker, whose CPU
// bill is the streaming mode's wall-clock overhead on single-core machines.

template <typename T>
void put_raw(char*& cursor, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(cursor, &value, sizeof(T));
  cursor += sizeof(T);
}

void put_f64(char*& cursor, double value) {
  put_raw(cursor, std::bit_cast<std::uint64_t>(value));
}

/// Largest serialised task: a ping, a trace core and 255 hops.
inline constexpr std::size_t kMaxTaskBytes =
    kPingRecordBytes + kTraceCoreBytes + 255 * kHopRecordBytes;

/// Reading cursor over a payload; get_raw advances it and fails instead of
/// reading past the end (a checksum-valid block can still be logically
/// malformed — e.g. written by a different build — so every read is bounded).
struct Reader {
  const char* cursor;
  const char* end;

  template <typename T>
  [[nodiscard]] bool get_raw(T& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (static_cast<std::size_t>(end - cursor) < sizeof(T)) return false;
    std::memcpy(&out, cursor, sizeof(T));
    cursor += sizeof(T);
    return true;
  }

  [[nodiscard]] bool get_f64(double& out) {
    std::uint64_t bits = 0;
    if (!get_raw(bits)) return false;
    out = std::bit_cast<double>(bits);
    return true;
  }
};

}  // namespace

std::uint64_t block_checksum(const BlockHeader& header,
                             std::string_view payload) {
  char fields[6 * sizeof(std::uint64_t)];
  char* cursor = fields;
  for (const std::uint64_t field :
       {header.seq, std::uint64_t{header.day}, std::uint64_t{header.start},
        std::uint64_t{header.tasks}, header.cursor, header.bytes}) {
    put_raw(cursor, field);
  }
  return util::fnv1a_words(payload,
                           util::fnv1a_words({fields, sizeof fields}));
}

std::string format_block_header(const BlockHeader& header) {
  std::string line{kBlockMagic};
  line += "seq=";
  append_u64(line, header.seq);
  line += " day=";
  append_u64(line, header.day);
  line += " start=";
  append_u64(line, header.start);
  line += " tasks=";
  append_u64(line, header.tasks);
  line += " cursor=";
  append_u64(line, header.cursor);
  line += " bytes=";
  append_u64(line, header.bytes);
  line += " fnv1a=";
  util::append_hex16(line, header.fnv1a);
  line += '\n';
  return line;
}

bool parse_block_header(std::string_view line, BlockHeader& out) {
  if (!line.starts_with(kBlockMagic)) return false;
  std::string_view rest = line.substr(kBlockMagic.size());
  std::string_view value;
  return take_field(rest, "seq", value) && parse_number(value, out.seq) &&
         take_field(rest, "day", value) && parse_number(value, out.day) &&
         take_field(rest, "start", value) && parse_number(value, out.start) &&
         take_field(rest, "tasks", value) && parse_number(value, out.tasks) &&
         take_field(rest, "cursor", value) &&
         parse_number(value, out.cursor) &&
         take_field(rest, "bytes", value) && parse_number(value, out.bytes) &&
         take_field(rest, "fnv1a", value) &&
         parse_number(value, out.fnv1a, 16) && rest.empty();
}

// lint:hot
void serialize_task(std::string& out, const measure::Dataset& data,
                    std::size_t row) {
  // Assembled in a stack buffer and appended once: the serializer runs per
  // task on the spill worker, so one bounds-checked string append beats
  // ~46 field-sized ones. The columnar cells already hold the on-disk
  // encoding — probe ids and catalog region indices — so there is no
  // pointer chasing here at all.
  const measure::PingColumn& pings = data.pings;
  const measure::TraceColumn& traces = data.traces;
  const std::span<const measure::HopRecord> hops = traces.hops(row);
  char buffer[kMaxTaskBytes];
  char* cursor = buffer;

  // Ping: u32 probe | u16 region | u8 protocol | u8 slot | f64 rtt (16 B).
  put_raw(cursor, pings.probe_id(row));
  put_raw(cursor, pings.region_index(row));
  put_raw(cursor, static_cast<std::uint8_t>(pings.protocol(row)));
  put_raw(cursor, pings.slot(row));
  put_f64(cursor, pings.rtt_ms(row));

  // Trace core: u32 probe | u16 region | u8 completed | u8 slot |
  // u32 target | f64 end-to-end | u8 mode | u8 hop count (22 B).
  CLOUDRTT_CHECK(hops.size() <= 255,
                 "trace hop list exceeds the codec's u8 hop count");
  put_raw(cursor, traces.probe_id(row));
  put_raw(cursor, traces.region_index(row));
  put_raw(cursor, static_cast<std::uint8_t>(traces.completed(row) ? 1 : 0));
  put_raw(cursor, traces.slot(row));
  put_raw(cursor, traces.target_ip(row).value());
  put_f64(cursor, traces.end_to_end_ms(row));
  put_raw(cursor, static_cast<std::uint8_t>(traces.true_mode(row)));
  put_raw(cursor, static_cast<std::uint8_t>(hops.size()));

  // Hops: u8 ttl | u8 responded | u32 ip | f64 rtt (14 B each). Silent
  // hops keep their (zero) ip/rtt bytes: fixed layout beats the few bytes
  // a conditional encoding would save.
  for (const measure::HopRecord& hop : hops) {
    put_raw(cursor, hop.ttl);
    put_raw(cursor, static_cast<std::uint8_t>(hop.responded ? 1 : 0));
    put_raw(cursor, hop.ip.value());
    put_f64(cursor, hop.rtt_ms);
  }
  out.append(buffer, cursor);
}

std::string_view cut_ping_record(std::string_view& payload,
                                 std::string_view& record) {
  if (payload.size() < kPingRecordBytes) {
    return "payload ends inside the ping record";
  }
  record = payload.substr(0, kPingRecordBytes);
  payload.remove_prefix(kPingRecordBytes);
  return {};
}

std::string_view cut_trace_record(std::string_view& payload,
                                  std::string_view& record) {
  if (payload.size() < kTraceCoreBytes) {
    return "payload ends inside the trace record";
  }
  const std::size_t bytes =
      kTraceCoreBytes + kHopRecordBytes * trace_record_hops(payload);
  if (payload.size() < bytes) return "payload ends inside the hop list";
  record = payload.substr(0, bytes);
  payload.remove_prefix(bytes);
  return {};
}

namespace {

// Dense per-fleet ids make presence an O(1) range probe; the on-disk probe
// id is also the column cell, so a validated id is appended as-is.
[[nodiscard]] bool known_probe(std::uint32_t id,
                               const probes::ProbeFleet* sc_fleet,
                               const probes::ProbeFleet* atlas_fleet) {
  return (sc_fleet != nullptr && sc_fleet->by_id(id) != nullptr) ||
         (atlas_fleet != nullptr && atlas_fleet->by_id(id) != nullptr);
}

[[nodiscard]] std::size_t region_count() {
  return cloud::RegionCatalog::instance().all().size();
}

}  // namespace

std::string decode_ping_record(std::string_view record, std::uint32_t day,
                               const probes::ProbeFleet* sc_fleet,
                               const probes::ProbeFleet* atlas_fleet,
                               measure::PingColumn& out) {
  Reader in{record.data(), record.data() + record.size()};
  std::uint32_t probe_id = 0;
  std::uint16_t region = 0;
  std::uint8_t protocol = 0;
  std::uint8_t slot = 0;
  double rtt_ms = 0.0;
  if (!in.get_raw(probe_id) || !in.get_raw(region) ||
      !in.get_raw(protocol) || !in.get_raw(slot) || !in.get_f64(rtt_ms)) {
    return "payload ends inside the ping record";
  }
  if (protocol > 1 || slot > 5 || region >= region_count()) {
    return "bad ping fields";
  }
  if (!known_probe(probe_id, sc_fleet, atlas_fleet)) {
    return "unknown probe id " + std::to_string(probe_id);
  }
  out.append_row(probe_id, region, static_cast<measure::Protocol>(protocol),
                 rtt_ms, day, slot);
  return {};
}

std::string decode_trace_record(std::string_view record, std::uint32_t day,
                                const probes::ProbeFleet* sc_fleet,
                                const probes::ProbeFleet* atlas_fleet,
                                measure::TraceColumn& out,
                                std::vector<measure::HopRecord>& hops) {
  Reader in{record.data(), record.data() + record.size()};
  std::uint32_t probe_id = 0;
  std::uint16_t region = 0;
  std::uint8_t completed = 0;
  std::uint8_t slot = 0;
  std::uint32_t target = 0;
  double end_to_end_ms = 0.0;
  std::uint8_t mode = 0;
  std::uint8_t hop_count = 0;
  if (!in.get_raw(probe_id) || !in.get_raw(region) ||
      !in.get_raw(completed) || !in.get_raw(slot) || !in.get_raw(target) ||
      !in.get_f64(end_to_end_ms) || !in.get_raw(mode) ||
      !in.get_raw(hop_count)) {
    return "payload ends inside the trace record";
  }
  if (completed > 1 || slot > 5 || mode > 3 || region >= region_count()) {
    return "bad trace fields";
  }
  if (!known_probe(probe_id, sc_fleet, atlas_fleet)) {
    return "unknown probe id " + std::to_string(probe_id);
  }
  hops.clear();
  hops.reserve(hop_count);
  for (std::uint8_t h = 0; h < hop_count; ++h) {
    measure::HopRecord hop;
    std::uint8_t responded = 0;
    std::uint32_t ip = 0;
    if (!in.get_raw(hop.ttl) || !in.get_raw(responded) || !in.get_raw(ip) ||
        !in.get_f64(hop.rtt_ms)) {
      return "payload ends inside the hop list";
    }
    if (hop.ttl == 0 || responded > 1) return "bad hop fields";
    hop.responded = responded == 1;
    hop.ip = net::Ipv4Address{ip};
    hops.push_back(hop);
  }
  out.append_row(probe_id, region, target, completed == 1, end_to_end_ms,
                 day, slot, static_cast<topology::InterconnectMode>(mode),
                 hops);
  return {};
}

std::string record_error(std::uint32_t day, std::uint32_t task,
                         std::string_view what) {
  return "task " + std::to_string(task) + " of day " + std::to_string(day) +
         ": " + std::string{what};
}

std::string parse_block(std::string_view payload, const BlockHeader& header,
                        const probes::ProbeFleet* sc_fleet,
                        const probes::ProbeFleet* atlas_fleet,
                        measure::Dataset& out) {
  // One hop scratch per block: cleared per task, its capacity amortises over
  // the block's 512 tasks (function-local keeps parse_block thread-safe).
  std::vector<measure::HopRecord> hops;
  std::string_view rest = payload;
  for (std::uint32_t task = 0; task < header.tasks; ++task) {
    std::string_view record;
    std::string why{cut_ping_record(rest, record)};
    if (why.empty()) {
      why = decode_ping_record(record, header.day, sc_fleet, atlas_fleet,
                               out.pings);
    }
    if (why.empty()) why = cut_trace_record(rest, record);
    if (why.empty()) {
      why = decode_trace_record(record, header.day, sc_fleet, atlas_fleet,
                                out.traces, hops);
    }
    if (!why.empty()) return record_error(header.day, header.start + task, why);
  }
  if (!rest.empty()) {
    return record_error(
        header.day, header.start + header.tasks - 1,
        std::to_string(rest.size()) + " trailing payload bytes");
  }
  return {};
}

std::filesystem::path store_manifest_path(const std::filesystem::path& dir,
                                          std::string_view platform) {
  return dir / (std::string{platform} + ".manifest");
}

std::filesystem::path store_shard_path(const std::filesystem::path& dir,
                                       std::string_view platform) {
  return dir / (std::string{platform} + ".shard");
}

}  // namespace cloudrtt::store
