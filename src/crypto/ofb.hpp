// Output Feedback (OFB) stream mode.
//
// Section 5: "the OFB encryption mode is applied to each segment separately,
// and therefore a possible error at the receiver does not propagate to the
// following segments".  OFB turns any block cipher into a synchronous
// stream cipher: O_0 = IV, O_i = E_K(O_{i-1}), C_i = P_i xor O_i.
// Encryption and decryption are the same operation.
//
// The implementation is batched: keystream is produced through the
// cipher's ofb_keystream() hot path (one virtual call per refill, not per
// block) and XORed into the payload word-at-a-time, so per-segment cost
// is dominated by the cipher core, not by dispatch or byte loops.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/block_cipher.hpp"

namespace tv::crypto {

/// One-shot OFB transform writing into `out` (out.size() == data.size();
/// in-place allowed when out.data() == data.data()).  Applying the
/// transform twice with the same iv restores the input.
void ofb_transform(const BlockCipher& cipher, std::span<const std::uint8_t> iv,
                   std::span<const std::uint8_t> data,
                   std::span<std::uint8_t> out);

/// In-place variant writing into `data`.
void ofb_transform_inplace(const BlockCipher& cipher,
                           std::span<const std::uint8_t> iv,
                           std::span<std::uint8_t> data);

/// Incremental OFB keystream, for callers that encrypt a segment in chunks
/// — and, via reset(), for callers that encrypt many segments in sequence
/// with one stream object (no per-segment buffer churn).
class OfbStream {
 public:
  /// Unseeded stream bound to a cipher: reset(iv) must be called before
  /// the first apply().  This is the constructor for per-segment reuse.
  explicit OfbStream(const BlockCipher& cipher);

  OfbStream(const BlockCipher& cipher, std::span<const std::uint8_t> iv);

  /// Restart the keystream from a fresh IV (iv.size() == block size),
  /// discarding any unconsumed keystream.  The internal buffers are
  /// reused, so resetting per segment costs no allocation.
  void reset(std::span<const std::uint8_t> iv);

  /// XOR the next keystream bytes into `data`.
  void apply(std::span<std::uint8_t> data);

 private:
  void refill(std::size_t want_bytes);

  const BlockCipher& cipher_;
  std::size_t block_size_;
  bool seeded_ = false;
  /// OFB feedback register O_i; ciphers have block size <= 16.
  std::array<std::uint8_t, 16> feedback_{};
  /// Buffered keystream bytes [used_, filled_) not yet consumed.
  std::vector<std::uint8_t> keystream_;
  std::size_t used_ = 0;
  std::size_t filled_ = 0;
};

/// Derive a deterministic per-segment IV from a flow IV and a segment
/// sequence number, as the sender and receiver must agree on one without
/// shipping it per packet.  Writes cipher.block_size() bytes into `out`.
void segment_iv(const BlockCipher& cipher,
                std::span<const std::uint8_t> flow_iv,
                std::uint64_t sequence_number, std::span<std::uint8_t> out);

/// Allocating convenience wrapper around the span-out overload.
[[nodiscard]] std::vector<std::uint8_t> segment_iv(
    const BlockCipher& cipher, std::span<const std::uint8_t> flow_iv,
    std::uint64_t sequence_number);

}  // namespace tv::crypto
