#include "net/pcap.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <span>
#include <stdexcept>

#include "net/rtp.hpp"

namespace tv::net {

namespace {

void put_u16be(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void put_u32be(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void put_u16le(std::ostream& out, std::uint16_t v) {
  const char bytes[2] = {static_cast<char>(v & 0xff),
                         static_cast<char>(v >> 8)};
  out.write(bytes, 2);
}

void put_u32le(std::ostream& out, std::uint32_t v) {
  const char bytes[4] = {
      static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
      static_cast<char>((v >> 16) & 0xff), static_cast<char>(v >> 24)};
  out.write(bytes, 4);
}

// RFC 1071 checksum over a byte span (IPv4 header checksum).
std::uint16_t internet_checksum(const std::uint8_t* data, std::size_t len) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < len; i += 2) {
    sum += static_cast<std::uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (len % 2 == 1) sum += static_cast<std::uint32_t>(data[len - 1]) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

/// Ethernet II + IPv4 + UDP envelope around an RTP datagram's bytes,
/// rebuilt into `frame` (cleared first) so the writer reuses one buffer
/// across records.  `ip_id` fills the IPv4 identification field.
void envelope_datagram_into(std::vector<std::uint8_t>& frame,
                            std::span<const std::uint8_t> rtp_datagram,
                            std::uint16_t ip_id) {
  frame.clear();
  // Exactly one allocation, sized up front — the frame layout is fixed.
  frame.reserve(14 + 20 + 8 + rtp_datagram.size());
  // Ethernet II: dst MAC, src MAC, ethertype IPv4.  Built in one shot — two
  // consecutive range-inserts here trip a GCC 12 -Wstringop-overflow false
  // positive at -O3 (the optimizer invents a 6-byte allocation).
  frame.insert(frame.end(), {0x02, 0x00, 0x00, 0x00, 0x00, 0x01,
                             0x02, 0x00, 0x00, 0x00, 0x00, 0x02,
                             0x08, 0x00});

  // IPv4 header (20 bytes, no options).
  const std::size_t ip_begin = frame.size();
  const auto udp_len = static_cast<std::uint16_t>(8 + rtp_datagram.size());
  frame.push_back(0x45);  // version 4, IHL 5.
  frame.push_back(0x00);  // DSCP/ECN.
  put_u16be(frame, static_cast<std::uint16_t>(20 + udp_len));
  put_u16be(frame, ip_id);
  put_u16be(frame, 0x4000);  // don't fragment.
  frame.push_back(64);       // TTL.
  frame.push_back(17);       // protocol UDP.
  put_u16be(frame, 0);       // checksum placeholder.
  put_u32be(frame, 0xC0A80102);  // 192.168.1.2 (the phone).
  put_u32be(frame, 0xC0A80101);  // 192.168.1.1 (the server/AP).
  const std::uint16_t csum = internet_checksum(&frame[ip_begin], 20);
  frame[ip_begin + 10] = static_cast<std::uint8_t>(csum >> 8);
  frame[ip_begin + 11] = static_cast<std::uint8_t>(csum & 0xff);

  // UDP header (checksum 0 = unused, legal for IPv4).
  put_u16be(frame, 5004);  // source port.
  put_u16be(frame, 5004);  // destination port.
  put_u16be(frame, udp_len);
  put_u16be(frame, 0);

  frame.insert(frame.end(), rtp_datagram.begin(), rtp_datagram.end());
}

void write_global_header(std::ostream& out) {
  // Magic (microsecond, little-endian), v2.4, LINKTYPE_ETHERNET.  Written
  // even for an empty capture list: a header-only pcap is the valid "heard
  // nothing" capture, exactly what tcpdump produces.
  put_u32le(out, 0xa1b2c3d4);
  put_u16le(out, 2);
  put_u16le(out, 4);
  put_u32le(out, 0);             // thiszone.
  put_u32le(out, 0);             // sigfigs.
  put_u32le(out, kPcapSnapLen);  // snaplen.
  put_u32le(out, 1);             // LINKTYPE_ETHERNET.
}

/// Write one record; clamps the timestamp monotone (against *previous_ts)
/// and the captured length to the snaplen.  Returns how many clamps the
/// record needed (0, 1 or 2) so callers can flag a suspect capture.
std::size_t write_record(std::ostream& out,
                         std::span<const std::uint8_t> frame,
                         double timestamp_s, double* previous_ts) {
  std::size_t clamped = 0;
  // Clamp timestamps that would corrupt the capture: negative times
  // underflow the unsigned fields, and records running backwards make
  // readers mis-sort or reject the file.
  double ts = timestamp_s;
  if (!(ts >= *previous_ts)) {  // also catches NaN.
    ts = *previous_ts;
    ++clamped;
  }
  *previous_ts = ts;
  const auto secs = static_cast<std::uint32_t>(ts);
  auto usecs = static_cast<std::uint32_t>(
      std::llround((ts - static_cast<double>(secs)) * 1e6));
  if (usecs >= 1000000u) usecs = 999999u;
  // Clamp-and-warn instead of emitting incl_len > snaplen: readers are
  // entitled to reject such a record outright.
  auto incl_len = static_cast<std::uint32_t>(frame.size());
  if (incl_len > kPcapSnapLen) {
    incl_len = kPcapSnapLen;
    ++clamped;
  }
  put_u32le(out, secs);
  put_u32le(out, usecs);
  put_u32le(out, incl_len);
  put_u32le(out, static_cast<std::uint32_t>(frame.size()));  // orig_len.
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(incl_len));
  return clamped;
}

}  // namespace

std::size_t write_pcap(std::ostream& out,
                       const std::vector<RawCapture>& captures) {
  write_global_header(out);
  std::size_t clamped = 0;
  double previous_ts = 0.0;
  std::uint16_t fallback_id = 0;
  std::vector<std::uint8_t> scratch;  // one frame buffer for every record.
  for (const RawCapture& cap : captures) {
    const auto header = RtpHeader::try_parse(cap.datagram);
    const std::uint16_t ip_id =
        header ? header->sequence_number : fallback_id;
    ++fallback_id;
    envelope_datagram_into(scratch, cap.datagram, ip_id);
    clamped += write_record(out, scratch, cap.timestamp_s, &previous_ts);
  }
  if (!out) throw std::runtime_error{"write_pcap: stream failure"};
  return clamped;
}

std::size_t write_pcap_file(const std::string& path,
                            const std::vector<RawCapture>& captures) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error{"write_pcap_file: cannot open " + path};
  return write_pcap(out, captures);
}

std::vector<RawCapture> capture_of(const std::vector<VideoPacket>& packets,
                                   const std::vector<bool>& captured,
                                   const std::vector<double>& timestamps) {
  if (captured.size() != packets.size() ||
      timestamps.size() != packets.size()) {
    throw std::invalid_argument{"capture_of: size mismatch"};
  }
  std::vector<RawCapture> out;
  out.reserve(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (!captured[i]) continue;
    const util::ByteView wire = packets[i].payload.wire();
    out.push_back(RawCapture{timestamps[i], {wire.begin(), wire.end()}});
  }
  return out;
}

namespace {

/// Byte-order-aware field reads for the pcap reader.
std::uint32_t load_u32(const std::uint8_t* p, bool big_endian) {
  if (big_endian) {
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) |
           static_cast<std::uint32_t>(p[3]);
  }
  return (static_cast<std::uint32_t>(p[3]) << 24) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         static_cast<std::uint32_t>(p[0]);
}

bool read_exact(std::istream& in, std::uint8_t* buf, std::size_t n) {
  in.read(reinterpret_cast<char*>(buf), static_cast<std::streamsize>(n));
  return static_cast<std::size_t>(in.gcount()) == n;
}

}  // namespace

PcapFile read_pcap(std::istream& in) {
  std::uint8_t header[24];
  if (!read_exact(in, header, sizeof header)) {
    throw std::runtime_error{"read_pcap: truncated global header"};
  }
  PcapFile file;
  // The magic doubles as the byte-order and timestamp-resolution marker:
  // written in the producer's native order, it reads as one of four values.
  const std::uint32_t magic_le = load_u32(header, /*big_endian=*/false);
  switch (magic_le) {
    case 0xa1b2c3d4: file.big_endian = false; break;
    case 0xd4c3b2a1: file.big_endian = true; break;
    case 0xa1b23c4d:
      file.big_endian = false;
      file.nanosecond_timestamps = true;
      break;
    case 0x4d3cb2a1:
      file.big_endian = true;
      file.nanosecond_timestamps = true;
      break;
    default:
      throw std::runtime_error{"read_pcap: unknown magic"};
  }
  file.snaplen = load_u32(header + 16, file.big_endian);
  file.link_type = load_u32(header + 20, file.big_endian);

  const double tick =
      file.nanosecond_timestamps ? 1e-9 : 1e-6;
  // Defensive ceiling on a single record: a corrupted length field must
  // not turn into a multi-gigabyte allocation.  Generous relative to any
  // real snaplen (tcpdump's maximum is 262144).
  constexpr std::uint32_t kMaxRecordBytes = 1u << 20;

  for (;;) {
    std::uint8_t rec[16];
    in.read(reinterpret_cast<char*>(rec), sizeof rec);
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;  // clean end of capture.
    if (got != sizeof rec) {
      throw std::runtime_error{"read_pcap: truncated record header"};
    }
    const std::uint32_t secs = load_u32(rec, file.big_endian);
    const std::uint32_t frac = load_u32(rec + 4, file.big_endian);
    const std::uint32_t incl_len = load_u32(rec + 8, file.big_endian);
    const std::uint32_t orig_len = load_u32(rec + 12, file.big_endian);
    if (incl_len > kMaxRecordBytes) {
      throw std::runtime_error{"read_pcap: implausible record length"};
    }
    // Clamp-and-warn: a record longer than the declared snaplen is a
    // producer bug, but the bytes are present — keep them and count it.
    if (incl_len > file.snaplen) ++file.oversized_records;
    PcapRecord record;
    record.timestamp_s =
        static_cast<double>(secs) + static_cast<double>(frac) * tick;
    record.original_length = orig_len;
    record.frame.resize(incl_len);
    if (incl_len > 0 && !read_exact(in, record.frame.data(), incl_len)) {
      throw std::runtime_error{"read_pcap: truncated record body"};
    }
    file.records.push_back(std::move(record));
  }
  return file;
}

PcapFile read_pcap_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"read_pcap_file: cannot open " + path};
  return read_pcap(in);
}

std::vector<RawCapture> extract_rtp(const PcapFile& capture) {
  std::vector<RawCapture> out;
  for (const PcapRecord& record : capture.records) {
    const std::vector<std::uint8_t>& f = record.frame;
    // Ethernet II + minimal IPv4: enough bytes, IPv4 ethertype, proto UDP.
    if (f.size() < 14 + 20 + 8) continue;
    if (f[12] != 0x08 || f[13] != 0x00) continue;
    if ((f[14] >> 4) != 4) continue;
    const std::size_t ihl = static_cast<std::size_t>(f[14] & 0x0f) * 4;
    if (ihl < 20 || f.size() < 14 + ihl + 8) continue;
    if (f[14 + 9] != 17) continue;  // not UDP.
    const std::size_t udp_begin = 14 + ihl;
    const std::size_t udp_len =
        (static_cast<std::size_t>(f[udp_begin + 4]) << 8) | f[udp_begin + 5];
    if (udp_len < 8 || f.size() < udp_begin + udp_len) continue;
    const std::span<const std::uint8_t> payload{f.data() + udp_begin + 8,
                                                udp_len - 8};
    if (!RtpHeader::try_parse(payload)) continue;
    out.push_back(RawCapture{record.timestamp_s,
                             {payload.begin(), payload.end()}});
  }
  return out;
}

}  // namespace tv::net
