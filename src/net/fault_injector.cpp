#include "net/fault_injector.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/rtp.hpp"

namespace tv::net {

void FaultPlan::validate() const {
  for (double p : {drop_prob, corrupt_header_prob, corrupt_payload_prob,
                   truncate_prob, duplicate_prob, reorder_prob}) {
    if (p < 0.0 || p > 1.0) {
      throw std::invalid_argument{
          "FaultPlan: probabilities must lie in [0, 1]"};
    }
  }
  if (max_bit_flips < 1) {
    throw std::invalid_argument{"FaultPlan: max_bit_flips must be >= 1"};
  }
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t seed)
    : plan_(plan), rng_(seed) {
  plan_.validate();
}

AppliedFaults FaultInjector::apply_one(std::vector<std::uint8_t>& d) {
  AppliedFaults applied;
  if (rng_.bernoulli(plan_.drop_prob)) {
    applied.dropped = true;
    return applied;  // nothing delivered: no more draws.
  }
  if (!d.empty() && rng_.bernoulli(plan_.corrupt_header_prob)) {
    const std::size_t header_bytes = std::min(d.size(), RtpHeader::kSize);
    const auto bit =
        static_cast<std::uint32_t>(rng_.uniform_int(header_bytes * 8));
    d[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ++applied.damaged;
  }
  if (d.size() > RtpHeader::kSize &&
      rng_.bernoulli(plan_.corrupt_payload_prob)) {
    const std::size_t payload_bits = (d.size() - RtpHeader::kSize) * 8;
    const auto flips =
        1 + rng_.uniform_int(static_cast<std::uint64_t>(plan_.max_bit_flips));
    for (std::uint64_t f = 0; f < flips; ++f) {
      const auto bit = static_cast<std::uint32_t>(
          rng_.uniform_int(payload_bits));
      const std::size_t byte = RtpHeader::kSize + bit / 8;
      d[byte] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      ++applied.damaged;
    }
  }
  if (!d.empty() && rng_.bernoulli(plan_.truncate_prob)) {
    // Cut anywhere, including below the RTP header: the receiver must
    // treat a runt datagram as garbage, not crash on it.
    d.resize(static_cast<std::uint32_t>(rng_.uniform_int(d.size())));
    ++applied.damaged;
  }
  applied.duplicated = rng_.bernoulli(plan_.duplicate_prob);
  // One reorder draw per delivered copy, plus a displacement draw when the
  // first of two byte-equal copies is marked.  They move nothing (the
  // caller reorders), but every seeded proxy and chaos run is pinned to
  // this RNG stream.
  const bool first_marked = rng_.bernoulli(plan_.reorder_prob);
  if (applied.duplicated) {
    if (first_marked) (void)rng_.uniform_int(1);
    (void)rng_.bernoulli(plan_.reorder_prob);
  }
  return applied;
}

}  // namespace tv::net
