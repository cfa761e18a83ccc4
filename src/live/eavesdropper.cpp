#include "live/eavesdropper.hpp"

#include <array>

namespace tv::live {

void EavesdropperTap::hear(double time_s,
                           std::vector<std::uint8_t>& datagram) {
  ++report_.heard;
  if (impairment_.decide(time_s, datagram).copies == 0) return;
  ++report_.captured;
  captures_.push_back(net::RawCapture{time_s, datagram});
  if (trace_ != nullptr) {
    trace_->event({core::Stage::kChannel, "eavesdrop", -1, 0, time_s,
                   static_cast<double>(datagram.size())});
  }
}

std::size_t EavesdropperTap::write_pcap(const std::string& path) const {
  return net::write_pcap_file(path, captures_);
}

std::vector<video::ReceivedFrameData> EavesdropperTap::reassemble(
    const StreamMap& map) const {
  // Run the capture through a fresh receive path: the snooper has the
  // same reorder/dedup machinery as the legitimate receiver, just no key.
  net::Receiver receiver;
  for (const net::RawCapture& cap : captures_) receiver.push(cap.datagram);
  std::vector<net::ReceivedPacket> packets;
  receiver.flush_into(packets);
  const std::array<std::uint8_t, 16> no_iv{};
  return reassemble_wire(map, packets, nullptr, no_iv);
}

}  // namespace tv::live
