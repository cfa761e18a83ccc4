// Gilbert-Elliott bursty channel model and scheduled AP outages.
//
// The paper's experiments ran on a live cafe WLAN where losses cluster:
// a fade or a burst of contention wipes out several consecutive packets,
// and the AP occasionally drops the association entirely (roaming,
// deauth, beacon loss).  The flat Bernoulli knobs in the pipeline model
// neither.  This module provides the classic two-state Gilbert-Elliott
// chain — a Good state with residual loss h_g and a Bad state with loss
// h_b, parameterised by the *observable* quantities (stationary loss
// rate, mean Bad-state sojourn) rather than raw transition
// probabilities — plus scheduled outage windows during which nothing is
// heard by anyone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace tv::wifi {

/// Observable parameterisation of a two-state Gilbert-Elliott channel.
///
/// `mean_loss_prob` is the stationary per-packet loss probability;
/// `mean_burst_length` the expected number of consecutive packet slots
/// spent in the Bad state once entered (the mean sojourn, in packets).
/// A `mean_burst_length` of 1 (or less) degenerates to i.i.d. Bernoulli
/// losses at `mean_loss_prob` — the same per-packet law as the pipeline's
/// legacy channel, though not the same draws (the chain has its own RNG
/// stream) — so sweeping burstiness up from 1 isolates the effect of
/// loss correlation at a fixed loss rate.
struct GilbertElliottParams {
  double mean_loss_prob = 0.0;
  double mean_burst_length = 1.0;
  double good_loss_prob = 0.0;  ///< h_g: residual loss in the Good state.
  double bad_loss_prob = 1.0;   ///< h_b: loss inside a burst.

  /// True when the configuration is memoryless (plain Bernoulli).
  [[nodiscard]] bool effectively_iid() const {
    return mean_burst_length <= 1.0;
  }

  /// Stationary probability of the Bad state implied by the targets.
  [[nodiscard]] double stationary_bad_prob() const;
  /// Per-slot Bad -> Good transition probability (1 / mean burst).
  [[nodiscard]] double bad_to_good_prob() const;
  /// Per-slot Good -> Bad transition probability.
  [[nodiscard]] double good_to_bad_prob() const;

  /// Throws std::invalid_argument when the targets are unreachable
  /// (e.g. mean loss outside [h_g, h_b], or a burst so long the Good
  /// state cannot compensate).
  void validate() const;
};

/// A window during which the AP is gone (disassociation / roaming): no
/// listener hears anything transmitted inside it.
struct OutageWindow {
  double start_s = 0.0;
  double duration_s = 0.0;

  [[nodiscard]] double end_s() const { return start_s + duration_s; }
  [[nodiscard]] bool contains(double t) const {
    return t >= start_s && t < end_s();
  }
};

/// True if `t` falls inside any of the windows.
[[nodiscard]] bool in_outage(const std::vector<OutageWindow>& outages,
                             double t);

/// Parses "START:DURATION<sep>START:DURATION..." (seconds; empty items are
/// skipped).  Each window needs START >= 0 and DURATION > 0; anything else
/// throws std::invalid_argument naming `what` (e.g. "--outage") and the
/// bad item.
[[nodiscard]] std::vector<OutageWindow> parse_outage_windows(
    const std::string& text, char separator, const std::string& what);

/// The chain itself: one instance per listener, advanced once per
/// on-air packet.  Deterministic in its seed.
class GilbertElliottChannel {
 public:
  GilbertElliottChannel(const GilbertElliottParams& params,
                        std::uint64_t seed);

  /// Advance one packet slot; returns true when the packet is lost.
  [[nodiscard]] bool lose_packet();

  [[nodiscard]] bool in_bad_state() const { return bad_; }
  [[nodiscard]] const GilbertElliottParams& params() const { return params_; }

  /// Convenience: generate the loss indicator sequence for `n` slots.
  [[nodiscard]] std::vector<bool> trace(std::size_t n);

 private:
  GilbertElliottParams params_;
  util::Rng rng_;
  double p_good_to_bad_ = 0.0;
  double p_bad_to_good_ = 1.0;
  bool bad_ = false;
};

}  // namespace tv::wifi
