// Pcap capture writing — the tcpdump stand-in of Fig. 3.
//
// The paper's eavesdropper "overhears the transmission on the channel by
// using tcpdump on his rooted phone or laptop".  This writer emits the
// packets a node captured as a classic little-endian pcap file
// (LINKTYPE_ETHERNET) with synthesized Ethernet/IPv4/UDP framing around
// the real RTP payloads, so simulated captures open in
// Wireshark/tcpdump for inspection ("Decode As" RTP shows the marker-bit
// encryption flags).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/packetizer.hpp"

namespace tv::net {

/// Snap length declared in every capture this writer produces (tcpdump's
/// classic default).  Frames longer than this are clamped on write — the
/// captured prefix is kept, the original length recorded — and counted in
/// the writer's return value instead of silently producing a record whose
/// incl_len exceeds the declared snaplen (which readers may reject).
inline constexpr std::uint32_t kPcapSnapLen = 65535;

/// One overheard datagram (RTP header + payload as heard on the wire)
/// with its capture timestamp: what the eavesdropper's tcpdump records,
/// whether the flow was simulated (capture_of), heard by the live tap or
/// read back from a file (extract_rtp).
struct RawCapture {
  double timestamp_s = 0.0;
  std::vector<std::uint8_t> datagram;
};

/// One record read back from a capture file.
struct PcapRecord {
  double timestamp_s = 0.0;
  std::uint32_t original_length = 0;  ///< orig_len field (pre-snap size).
  std::vector<std::uint8_t> frame;    ///< captured bytes (<= snaplen).
};

/// A parsed capture file.  The reader accepts all four classic magics:
/// little- and big-endian byte orders, microsecond (0xa1b2c3d4) and
/// nanosecond (0xa1b23c4d) timestamp resolutions.
struct PcapFile {
  bool big_endian = false;
  bool nanosecond_timestamps = false;
  std::uint32_t link_type = 0;
  std::uint32_t snaplen = 0;
  /// Records whose incl_len exceeded the declared snaplen.  Clamp-and-warn:
  /// the bytes are kept (the writer said they are there) and the count lets
  /// callers flag the producing tool instead of failing the whole read.
  std::size_t oversized_records = 0;
  std::vector<PcapRecord> records;
};

/// Parse a classic pcap stream/file.  Throws std::runtime_error on an
/// unknown magic, a truncated header or a truncated record body.
[[nodiscard]] PcapFile read_pcap(std::istream& in);
[[nodiscard]] PcapFile read_pcap_file(const std::string& path);

/// The RTP datagrams in an Ethernet/IPv4/UDP capture, skipping frames
/// that are not UDP or whose payload does not parse as a fixed RTP
/// header.  This is the offline half of the eavesdropper: score a capture
/// produced by the live proxy (or tcpdump) without the sockets.
[[nodiscard]] std::vector<RawCapture> extract_rtp(const PcapFile& capture);

/// Write a pcap capture of overheard datagrams, each enveloped in a
/// synthesized Ethernet/IPv4/UDP frame from the phone (192.168.1.2:5004)
/// to the server/AP (192.168.1.1:5004) whose IPv4 identification field
/// reuses the RTP sequence number when the datagram parses, else a
/// running counter.  Captures should be in timestamp order (tcpdump
/// writes what it hears, in order); an empty list yields a valid, empty
/// capture.  Timestamps that would make the file invalid — negative, or
/// running backwards past an earlier record — are clamped (to zero / the
/// previous record's time), and so are frames longer than the snaplen;
/// the return value is the number of records that needed clamping, so
/// callers can flag a suspect capture instead of silently shipping one
/// tcpdump rejects.
std::size_t write_pcap(std::ostream& out,
                       const std::vector<RawCapture>& captures);
std::size_t write_pcap_file(const std::string& path,
                            const std::vector<RawCapture>& captures);

/// The capture a node records of a transfer: the wire image of every
/// packet whose `captured[i]` flag is set, stamped with `timestamps[i]`.
/// Throws std::invalid_argument when the three sizes differ.
[[nodiscard]] std::vector<RawCapture> capture_of(
    const std::vector<VideoPacket>& packets,
    const std::vector<bool>& captured, const std::vector<double>& timestamps);

}  // namespace tv::net
