// Encryption policies (Section 3): which packets of a video flow get
// encrypted, and with which algorithm.
//
// A selection policy P is (i) the symmetric algorithm and (ii) the set of
// packets to encrypt.  The paper evaluates: none, all, I-frame packets
// only, P-frame packets only, I-frames plus a fraction alpha of P-frame
// packets (Fig. 9 / Table 2), and partial I-frame encryption (Section 6.2,
// found inadequate).  Fractional selections are deterministic stride
// patterns so experiments are exactly reproducible.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "crypto/suite.hpp"
#include "net/packetizer.hpp"

namespace tv::policy {

enum class Mode {
  kNone,            ///< send everything in the clear.
  kIFrames,         ///< encrypt every packet of every I-frame.
  kPFrames,         ///< encrypt every packet of every P-frame.
  kAll,             ///< encrypt everything.
  kIPlusFractionP,  ///< I-frames plus fraction `fraction` of P packets.
  kFractionI,       ///< fraction `fraction` of I-frame packets only.
};

[[nodiscard]] const char* to_string(Mode mode);

struct EncryptionPolicy {
  Mode mode = Mode::kNone;
  crypto::Algorithm algorithm = crypto::Algorithm::kAes256;
  double fraction = 0.0;  ///< alpha for the fractional modes, in [0, 1].

  bool operator==(const EncryptionPolicy&) const = default;

  /// Human-readable label, e.g. "I+20%P (AES256)".
  [[nodiscard]] std::string label() const;

  /// Canonical machine-readable spec ("none", "I", "P", "all", "I+<pct>P",
  /// "<pct>I") that round-trips through policy_from_string.
  [[nodiscard]] std::string spec() const;

  /// Decide, per packet, whether this policy encrypts it.
  [[nodiscard]] std::vector<bool> select(
      const std::vector<net::VideoPacket>& packets) const;

  /// The fractions (q_I, q_P) of I-frame/P-frame packets this policy
  /// encrypts — the model inputs of Sections 4.2.2 and 4.3.
  [[nodiscard]] double i_packet_fraction() const;
  [[nodiscard]] double p_packet_fraction() const;

  void validate() const;
};

/// The four headline policies of Figs. 4-8 for a given algorithm, in the
/// paper's plotting order: none, P, I, all.
[[nodiscard]] std::vector<EncryptionPolicy> headline_policies(
    crypto::Algorithm algorithm);

/// One rung down the graceful-degradation ladder the live supervisor
/// walks under queue pressure: the encrypted share of P packets halves
/// each step until only I-frames remain — the confidentiality floor the
/// paper keeps (I-frame encryption already denies the eavesdropper a
/// usable picture), while each step sheds encryption work.
///
///   all -> I+50%P -> I+25%P -> ... -> I        (fractions < 5% snap to I)
///   P   -> none    (no I coverage to preserve)
///   <pct>I -> none (partial-I was found inadequate; dropping it costs
///                   nothing the paper values)
///   I, none -> unchanged (ladder floor).
[[nodiscard]] EncryptionPolicy degrade_step(const EncryptionPolicy& policy);

/// Parse a policy spec for `algorithm`.  Accepted grammar:
///   none | I | P | all | I+<pct>P (e.g. I+20P) | <pct>I (e.g. 50I)
/// Percentages may be fractional ("I+12.5P").  Throws std::invalid_argument
/// with the accepted grammar on malformed input.  Inverse of
/// EncryptionPolicy::spec().
[[nodiscard]] EncryptionPolicy policy_from_string(std::string_view spec,
                                                  crypto::Algorithm algorithm);

/// Traffic-shaping countermeasures against the ciphertext-only
/// traffic-analysis adversary (docs/adversary.md).  Orthogonal to the
/// encryption policy: encryption decides what an eavesdropper can *read*,
/// shaping decides what the wire *looks like*.  Every knob is priced in
/// the paper's delay/energy currency by running the shaped packets
/// through the same `core::ServiceModel`/`energy::` pipeline.
struct ShapingPolicy {
  /// 0 = off.  Otherwise pad every RTP payload up to the next multiple
  /// of this bucket (RFC 3550 pad trailer, applied before encryption so
  /// the true length is hidden inside the ciphertext).  Buckets are
  /// limited to [2, 256]: the one-byte pad count caps padding at 255.
  std::size_t pad_bucket_bytes = 0;

  /// Clear the wire marker bits and carry the "payload is encrypted"
  /// flag out-of-band in the StreamMap instead (the paper's Section 5
  /// signalling channel), denying the adversary its per-packet oracle.
  bool hide_markers = false;

  /// Sigma (seconds) of a seeded half-normal jitter added to every
  /// packet's send time.  0 = off.  Mean added delay is sigma*sqrt(2/pi).
  double jitter_stddev_s = 0.0;

  [[nodiscard]] bool enabled() const {
    return pad_bucket_bytes != 0 || hide_markers || jitter_stddev_s > 0.0;
  }

  /// Canonical spec: "none", or "+"-joined knobs in fixed order, e.g.
  /// "pad256+hidemark+jit2ms".  Round-trips through shaping_from_string.
  [[nodiscard]] std::string spec() const;

  void validate() const;
};

/// Parse a shaping spec.  Accepted grammar: "none", or any "+"-joined
/// combination of pad<bytes> | hidemark | jit<ms>ms (fractional ms ok).
/// Throws std::invalid_argument on malformed input.  Inverse of
/// ShapingPolicy::spec().
[[nodiscard]] ShapingPolicy shaping_from_string(std::string_view spec);

}  // namespace tv::policy
