// Deterministic fault injection for the receive path.
//
// An open-WiFi eavesdropper (and, during fades, the legitimate receiver)
// sees a hostile version of the sender's stream: bit-corrupted payloads
// and headers, duplicated frames from MAC-level retransmissions and
// truncated captures.  The FaultInjector damages one datagram at a time,
// driven by a declarative FaultPlan and a single seed, so that every
// damaged trace is reproducible byte for byte.  Reordering is the
// caller's job (live::ImpairmentProxy holds datagrams back).
// tv::net::Receiver must survive all of it without throwing.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace tv::net {

/// Declarative description of how hostile the path is.  Probabilities
/// are independent per datagram; several faults can hit the same one.
struct FaultPlan {
  double drop_prob = 0.0;
  double corrupt_header_prob = 0.0;
  double corrupt_payload_prob = 0.0;
  double truncate_prob = 0.0;
  double duplicate_prob = 0.0;
  double reorder_prob = 0.0;
  int max_bit_flips = 8;  ///< per corrupted payload.

  void validate() const;  ///< throws std::invalid_argument on bad values.
};

/// What apply_one did to a single datagram, reduced to what per-datagram
/// callers (the live proxy, the chaos sender) act on.
struct AppliedFaults {
  bool dropped = false;     ///< datagram must not be delivered.
  bool duplicated = false;  ///< deliver the (damaged) datagram twice.
  int damaged = 0;          ///< corrupt/truncate events applied in place.
};

class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, std::uint64_t seed);

  /// Damage one datagram in place.  Deterministic: same plan + seed +
  /// datagram sequence => identical damage.
  [[nodiscard]] AppliedFaults apply_one(std::vector<std::uint8_t>& datagram);

 private:
  FaultPlan plan_;
  util::Rng rng_;
};

}  // namespace tv::net
