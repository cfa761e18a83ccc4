// The one channel decision of the live plane: does this listener hear
// this datagram, and in what shape?  The receiver, the eavesdropper (who
// hears the transmission, not the delivery) and a client's uplink each
// ask their own Impairment once per datagram: the impairment proxy, the
// eavesdropper tap and the chaos socket.  A replayed per-packet mask
// decides alone; otherwise an AP outage loses the datagram, a
// Gilbert-Elliott chain draws only outside an outage, and a
// net::FaultInjector damages, drops or duplicates what the channel let
// through.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "live/stream_map.hpp"
#include "net/fault_injector.hpp"
#include "wifi/gilbert_elliott.hpp"

namespace tv::live {

/// The stochastic impairments of one path, all optional.
struct ImpairmentPlan {
  std::optional<net::FaultPlan> faults;  ///< bit damage / drop / dup.
  std::optional<wifi::GilbertElliottParams> channel;  ///< bursty loss.
  std::vector<wifi::OutageWindow> outages;  ///< AP gone: nothing heard.
};

/// What the decision did to one datagram.
struct Verdict {
  int copies = 1;          ///< 0 (lost), 1, or 2 (duplicated).
  bool replayed = false;   ///< the replay mask decided; nothing was drawn.
  bool faulted = false;    ///< lost to the fault plan, not the channel.
  int damaged = 0;         ///< corrupt/truncate events applied in place.
};

class Impairment {
 public:
  /// Hears everything until replay() is called.
  Impairment() = default;
  /// The chain and the injector draw from their own seeds.
  Impairment(const ImpairmentPlan& plan, std::uint64_t channel_seed,
             std::uint64_t fault_seed);

  /// Replay mode: the datagram whose stream index is set in `mask` (an
  /// in-memory transfer's delivery or capture mask) is heard, every other
  /// one is lost, including one the map cannot place.  Overrides the
  /// plan.  `map` must outlive the Impairment.
  void replay(const StreamMap& map, std::vector<bool> mask);

  /// Decide one datagram heard at `now_s`, damaging it in place.
  [[nodiscard]] Verdict decide(double now_s,
                               std::vector<std::uint8_t>& datagram);

  /// True when decide() always returns one untouched copy.
  [[nodiscard]] bool inert() const {
    return map_ == nullptr && outages_.empty() && !chain_ && !injector_;
  }

 private:
  const StreamMap* map_ = nullptr;
  std::vector<bool> mask_;
  std::vector<wifi::OutageWindow> outages_;
  std::optional<wifi::GilbertElliottChannel> chain_;
  std::optional<net::FaultInjector> injector_;
};

}  // namespace tv::live
