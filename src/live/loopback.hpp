// In-process live testbed: sender → impairment proxy (+ eavesdropper tap)
// → receiver over real UDP on the loopback interface.
//
// Two modes share one orchestration:
//
//  * replay (default, deterministic): an in-memory core::simulate_transfer
//    runs first; its per-packet completion times pace the live sender and
//    its receiver/eavesdropper channel masks drive the proxy and tap.  The
//    live receiver then sees, byte for byte, the delivery the simulation
//    decided — so its PSNR equals the in-memory result exactly, which is
//    what the pinned e2e test asserts (within 0.1 dB).
//
//  * stochastic: the proxy impairs with its own Gilbert-Elliott chain /
//    fault plan seeded from the run seed, and the tap hears everything.
//    Still deterministic in the seed (virtual clock, fixed RNG streams),
//    but no in-memory twin.
//
// Either way the run reports live, in-memory and analytic (distortion
// model) PSNRs side by side for the receiver and the eavesdropper.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/trace.hpp"
#include "live/eavesdropper.hpp"
#include "live/proxy.hpp"
#include "live/sender.hpp"
#include "net/fault_injector.hpp"
#include "net/receiver.hpp"
#include "policy/policy.hpp"
#include "video/scene.hpp"

namespace tv::live {

struct LoopbackConfig {
  video::MotionLevel motion = video::MotionLevel::kLow;
  int gop_size = 16;
  int frames = 48;
  policy::EncryptionPolicy policy;
  /// Traffic-shaping countermeasures (docs/adversary.md): padding is
  /// applied before encryption, marker hiding after, jitter on the send
  /// schedule.  Their delay/energy price flows through the same
  /// simulate_transfer/energy pipeline as everything else.
  policy::ShapingPolicy shaping;
  core::PipelineConfig pipeline;
  std::uint64_t seed = 1;
  /// false: replay the in-memory transfer's masks (pinned determinism).
  /// true: the proxy/tap impair stochastically from the seed.
  bool stochastic = false;
  /// Stochastic-mode proxy fault plan (ignored in replay mode).
  std::optional<net::FaultPlan> faults;
  /// When non-empty, write the tap's capture here as a classic pcap.
  std::string pcap_path;
  core::TraceSink* trace = nullptr;  ///< optional; zero overhead when null.
};

struct LoopbackReport {
  std::size_t packet_count = 0;
  net::EncryptionStats encryption;
  double duration_s = 0.0;  ///< in-memory transfer duration.
  std::size_t pad_overhead_bytes = 0;  ///< pad trailer bytes on the wire.
  double jitter_mean_delay_s = 0.0;    ///< mean extra send delay (jitter).

  // Receiver PSNR: live wire path vs. in-memory twin vs. analytic model.
  double live_receiver_psnr_db = 0.0;
  double memory_receiver_psnr_db = 0.0;
  double predicted_receiver_psnr_db = 0.0;
  // Eavesdropper (no key; marked payloads are erasures).
  double live_eavesdropper_psnr_db = 0.0;
  double memory_eavesdropper_psnr_db = 0.0;
  double predicted_eavesdropper_psnr_db = 0.0;

  SenderReport sender;
  ProxyReport proxy;
  net::ReceiverStats receiver;
  TapReport tap;
  std::size_t pcap_clamped = 0;  ///< writer clamp count (0 = clean).
};

/// Run the full three-role loopback testbed on a virtual-clock event
/// loop.  No sleeps, no wall-clock dependence: a run is a pure function
/// of its config.
[[nodiscard]] LoopbackReport run_loopback(const LoopbackConfig& config);

}  // namespace tv::live
