// Wire-level eavesdropper tap: what the rooted phone with tcpdump hears.
//
// The tap sits inside the impairment proxy — the "air" of the testbed —
// and overhears datagrams before the proxy decides the legitimate
// receiver's fate, exactly the Section 3 threat model: an attacker on
// the same open WiFi hears the transmission, not the delivery.  It
// records raw captures (writable as a classic pcap via net/pcap), and
// scores itself by reassembling without the key: payloads whose RTP
// marker bit is set are erasures no matter how cleanly they were heard.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "live/impairment.hpp"
#include "live/stream_map.hpp"
#include "net/pcap.hpp"
#include "net/receiver.hpp"

namespace tv::live {

struct TapReport {
  std::size_t heard = 0;     ///< datagrams presented to the tap.
  std::size_t captured = 0;  ///< datagrams the tap's channel let through.
};

/// Capture policy: everything, or a replayed per-packet mask
/// (deterministic loopback) set through impairment().replay().
class EavesdropperTap {
 public:
  explicit EavesdropperTap(core::TraceSink* trace = nullptr)
      : trace_(trace) {}

  /// The tap's channel.  It carries no fault plan, so hearing never
  /// changes the bytes the proxy goes on to impair.
  [[nodiscard]] Impairment& impairment() { return impairment_; }

  /// Present one overheard datagram to the tap at `time_s`.  The tap
  /// copies the bytes only when it actually captures them.
  void hear(double time_s, std::vector<std::uint8_t>& datagram);

  /// Write everything captured as a classic pcap file.  Returns the
  /// writer's clamp count (suspect-capture flag).
  std::size_t write_pcap(const std::string& path) const;

  /// Score the capture: reassemble without the key (marked payloads are
  /// erasures) into per-frame byte availability.
  [[nodiscard]] std::vector<video::ReceivedFrameData> reassemble(
      const StreamMap& map) const;

  [[nodiscard]] const TapReport& report() const { return report_; }
  [[nodiscard]] const std::vector<net::RawCapture>& captures() const {
    return captures_;
  }

 private:
  core::TraceSink* trace_;
  Impairment impairment_;
  std::vector<net::RawCapture> captures_;
  TapReport report_;
};

}  // namespace tv::live
