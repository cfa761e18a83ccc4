#include "live/eavesdropper.hpp"

#include <array>
#include <utility>

#include "net/rtp.hpp"

namespace tv::live {

void EavesdropperTap::set_capture_mask(const StreamMap* map,
                                       std::vector<bool> mask) {
  mask_map_ = map;
  capture_mask_ = std::move(mask);
  channel_.reset();
}

void EavesdropperTap::set_channel(const wifi::GilbertElliottParams& params,
                                  std::uint64_t seed) {
  channel_.emplace(params, seed);
  mask_map_ = nullptr;
  capture_mask_.clear();
}

void EavesdropperTap::hear(double time_s,
                           std::span<const std::uint8_t> datagram) {
  ++report_.heard;
  bool captured = true;
  if (mask_map_ != nullptr) {
    // Replay mode: the mask is indexed by stream position.  Loopback
    // streams are contiguous from the base sequence, so the wire
    // sequence resolves directly (streams here are far shorter than one
    // 16-bit cycle).
    captured = false;
    if (const auto header = net::RtpHeader::try_parse(datagram)) {
      const auto index = mask_map_->index_of(
          static_cast<std::int64_t>(header->sequence_number));
      if (index && *index < capture_mask_.size()) {
        captured = capture_mask_[*index];
      }
    }
  } else if (channel_) {
    captured = !channel_->lose_packet();
  }
  if (!captured) return;
  ++report_.captured;
  captures_.push_back(net::RawCapture{
      time_s, std::vector<std::uint8_t>(datagram.begin(), datagram.end())});
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
