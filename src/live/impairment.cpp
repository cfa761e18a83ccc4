#include "live/impairment.hpp"

#include <utility>

#include "net/rtp.hpp"

namespace tv::live {

Impairment::Impairment(const ImpairmentPlan& plan,
                       std::uint64_t channel_seed, std::uint64_t fault_seed)
    : outages_(plan.outages) {
  if (plan.channel) chain_.emplace(*plan.channel, channel_seed);
  if (plan.faults) injector_.emplace(*plan.faults, fault_seed);
}

void Impairment::replay(const StreamMap& map, std::vector<bool> mask) {
  map_ = &map;
  mask_ = std::move(mask);
}

Verdict Impairment::decide(double now_s,
                           std::vector<std::uint8_t>& datagram) {
  if (map_ != nullptr) {
    // Loopback streams are contiguous from the base sequence and far
    // shorter than one 16-bit cycle, so the wire sequence resolves
    // directly to a stream index.
    const auto header = net::RtpHeader::try_parse(datagram);
    const auto index =
        header ? map_->index_of(header->sequence_number) : std::nullopt;
    const bool heard = index && *index < mask_.size() && mask_[*index];
    return {.copies = heard ? 1 : 0, .replayed = true};
  }
  if (wifi::in_outage(outages_, now_s) || (chain_ && chain_->lose_packet())) {
    return {.copies = 0};
  }
  if (!injector_) return {};
  const net::AppliedFaults applied = injector_->apply_one(datagram);
  return {.copies = applied.dropped ? 0 : applied.duplicated ? 2 : 1,
          .faulted = applied.dropped,
          .damaged = applied.damaged};
}

}  // namespace tv::live
