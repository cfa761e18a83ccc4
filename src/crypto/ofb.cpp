#include "crypto/ofb.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace tv::crypto {

namespace {

/// Keystream buffered per refill, in blocks.  One MTU-sized packet
/// (1460 B) fits in a single refill for both block sizes, so a typical
/// segment costs exactly one virtual ofb_keystream() call.
constexpr std::size_t kMaxBufferBlocks = 256;

/// XOR `n` bytes of `ks` into `data`, word-at-a-time.
void xor_bytes(std::uint8_t* data, const std::uint8_t* ks, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t d;
    std::uint64_t k;
    std::memcpy(&d, data + i, 8);
    std::memcpy(&k, ks + i, 8);
    d ^= k;
    std::memcpy(data + i, &d, 8);
  }
  for (; i < n; ++i) data[i] ^= ks[i];
}

}  // namespace

OfbStream::OfbStream(const BlockCipher& cipher)
    : cipher_(cipher), block_size_(cipher.block_size()) {
  if (block_size_ == 0 || block_size_ > feedback_.size()) {
    throw std::invalid_argument{"OfbStream: unsupported block size"};
  }
}

OfbStream::OfbStream(const BlockCipher& cipher,
                     std::span<const std::uint8_t> iv)
    : OfbStream(cipher) {
  reset(iv);
}

void OfbStream::reset(std::span<const std::uint8_t> iv) {
  if (iv.size() != block_size_) {
    throw std::invalid_argument{"OfbStream: iv size != block size"};
  }
  std::copy(iv.begin(), iv.end(), feedback_.begin());
  seeded_ = true;
  used_ = 0;
  filled_ = 0;
}

void OfbStream::refill(std::size_t want_bytes) {
  // Generate just enough blocks for the caller's remaining bytes (capped
  // by the buffer), so short segments don't pay for keystream they never
  // consume.
  const std::size_t want_blocks = std::min(
      kMaxBufferBlocks, (want_bytes + block_size_ - 1) / block_size_);
  const std::size_t blocks = std::max<std::size_t>(1, want_blocks);
  // Grown lazily (and kept across reset()) so a stream reused across many
  // segments allocates once and a tiny one-shot allocates only one block.
  if (keystream_.size() < blocks * block_size_) {
    keystream_.resize(blocks * block_size_);
  }
  cipher_.ofb_keystream(std::span<std::uint8_t>{feedback_.data(), block_size_},
                        std::span<std::uint8_t>{keystream_.data(),
                                                blocks * block_size_},
                        blocks);
  used_ = 0;
  filled_ = blocks * block_size_;
}

void OfbStream::apply(std::span<std::uint8_t> data) {
  if (!seeded_) {
    throw std::logic_error{"OfbStream::apply: reset(iv) has not been called"};
  }
  std::uint8_t* p = data.data();
  std::size_t remaining = data.size();
  while (remaining > 0) {
    if (used_ == filled_) refill(remaining);
    const std::size_t take = std::min(remaining, filled_ - used_);
    xor_bytes(p, keystream_.data() + used_, take);
    used_ += take;
    p += take;
    remaining -= take;
  }
}

void ofb_transform(const BlockCipher& cipher, std::span<const std::uint8_t> iv,
                   std::span<const std::uint8_t> data,
                   std::span<std::uint8_t> out) {
  if (out.size() != data.size()) {
    throw std::invalid_argument{"ofb_transform: out size != data size"};
  }
  if (out.data() != data.data()) {
    std::copy(data.begin(), data.end(), out.begin());
  }
  OfbStream stream{cipher, iv};
  stream.apply(out);
}

void ofb_transform_inplace(const BlockCipher& cipher,
                           std::span<const std::uint8_t> iv,
                           std::span<std::uint8_t> data) {
  ofb_transform(cipher, iv, data, data);
}

void segment_iv(const BlockCipher& cipher,
                std::span<const std::uint8_t> flow_iv,
                std::uint64_t sequence_number, std::span<std::uint8_t> out) {
  const std::size_t block = cipher.block_size();
  if (flow_iv.size() != block) {
    throw std::invalid_argument{"segment_iv: flow iv size != block size"};
  }
  if (out.size() != block) {
    throw std::invalid_argument{"segment_iv: out size != block size"};
  }
  // Encrypt (flow_iv xor seq) so IVs are unpredictable without the key and
  // unique per segment.
  if (out.data() != flow_iv.data()) {
    std::copy(flow_iv.begin(), flow_iv.end(), out.begin());
  }
  for (std::size_t i = 0; i < 8 && i < block; ++i) {
    out[block - 1 - i] ^=
        static_cast<std::uint8_t>((sequence_number >> (8 * i)) & 0xff);
  }
  cipher.encrypt_block(out, out);
}

std::vector<std::uint8_t> segment_iv(const BlockCipher& cipher,
                                     std::span<const std::uint8_t> flow_iv,
                                     std::uint64_t sequence_number) {
  std::vector<std::uint8_t> block(cipher.block_size());
  segment_iv(cipher, flow_iv, sequence_number, block);
  return block;
}

}  // namespace tv::crypto
