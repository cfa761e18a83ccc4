// Statistical properties of the ciphers: avalanche behaviour and keystream
// uniformity.  These are the properties that make "encrypted packet ==
// erasure for the eavesdropper" a sound modeling assumption: a marked
// payload carries no usable structure.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/des.hpp"
#include "crypto/ofb.hpp"
#include "crypto/suite.hpp"
#include "util/rng.hpp"

namespace tv::crypto {
namespace {

int hamming(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  int bits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    bits += std::popcount(static_cast<unsigned>(a[i] ^ b[i]));
  }
  return bits;
}

class Avalanche : public ::testing::TestWithParam<Algorithm> {};

TEST_P(Avalanche, SingleBitPlaintextFlipChangesHalfTheCiphertext) {
  const auto cipher = make_cipher_from_seed(GetParam(), 11);
  const std::size_t block = cipher->block_size();
  util::Rng rng{17};
  double total_frac = 0.0;
  constexpr int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<std::uint8_t> pt(block);
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng());
    std::vector<std::uint8_t> pt2 = pt;
    pt2[rng.uniform_int(block)] ^=
        static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    std::vector<std::uint8_t> c1(block);
    std::vector<std::uint8_t> c2(block);
    cipher->encrypt_block(pt, c1);
    cipher->encrypt_block(pt2, c2);
    total_frac +=
        static_cast<double>(hamming(c1, c2)) / (8.0 * static_cast<double>(block));
  }
  // Ideal avalanche flips 50% of output bits.
  EXPECT_NEAR(total_frac / kTrials, 0.5, 0.03);
}

TEST_P(Avalanche, SingleBitKeyFlipChangesHalfTheCiphertext) {
  util::Rng rng{23};
  std::vector<std::uint8_t> key(key_size(GetParam()));
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  const auto cipher = make_cipher(GetParam(), key);
  double total_frac = 0.0;
  constexpr int kTrials = 120;
  const std::size_t block = cipher->block_size();
  // DES keys carry a parity bit in each byte's LSB that the key schedule
  // discards (ANSI X3.92); flipping it cannot change the ciphertext, so
  // restrict flips to effective key bits for the DES family.
  const int low_bit = GetParam() == Algorithm::kTripleDes ? 1 : 0;
  for (int t = 0; t < kTrials; ++t) {
    auto key2 = key;
    key2[rng.uniform_int(key2.size())] ^= static_cast<std::uint8_t>(
        1u << (low_bit + rng.uniform_int(static_cast<std::uint64_t>(
                   8 - low_bit))));
    const auto cipher2 = make_cipher(GetParam(), key2);
    std::vector<std::uint8_t> pt(block);
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng());
    std::vector<std::uint8_t> c1(block);
    std::vector<std::uint8_t> c2(block);
    cipher->encrypt_block(pt, c1);
    cipher2->encrypt_block(pt, c2);
    total_frac +=
        static_cast<double>(hamming(c1, c2)) / (8.0 * static_cast<double>(block));
  }
  EXPECT_NEAR(total_frac / kTrials, 0.5, 0.04);
}

INSTANTIATE_TEST_SUITE_P(Ciphers, Avalanche,
                         ::testing::Values(Algorithm::kAes128,
                                           Algorithm::kAes256,
                                           Algorithm::kTripleDes));

TEST(Keystream, OfbOutputLooksUniform) {
  // Encrypt all-zero data: the ciphertext IS the keystream.  Its byte mean
  // and bit balance must look uniform — this is what denies the
  // eavesdropper any residual video structure.
  const auto cipher = make_cipher_from_seed(Algorithm::kAes256, 31);
  std::vector<std::uint8_t> iv(16, 0x9c);
  std::vector<std::uint8_t> ks(200000, 0);
  ofb_transform_inplace(*cipher, iv, ks);
  double mean = 0.0;
  long ones = 0;
  for (std::uint8_t b : ks) {
    mean += b;
    ones += std::popcount(static_cast<unsigned>(b));
  }
  mean /= static_cast<double>(ks.size());
  const double bit_frac =
      static_cast<double>(ones) / (8.0 * static_cast<double>(ks.size()));
  EXPECT_NEAR(mean, 127.5, 1.0);
  EXPECT_NEAR(bit_frac, 0.5, 0.005);

  // Byte histogram chi-square against uniform: 255 dof, accept < 350
  // (p ~ 1e-4 false-positive under uniformity).
  std::array<long, 256> hist{};
  for (std::uint8_t b : ks) ++hist[b];
  const double expected = static_cast<double>(ks.size()) / 256.0;
  double chi2 = 0.0;
  for (long h : hist) {
    const double d = static_cast<double>(h) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 350.0);
}

TEST(Keystream, EncryptedVideoPayloadLosesItsStructure) {
  // Video payloads are highly non-uniform (skip runs, small varints); the
  // encrypted version must not be.
  const auto cipher = make_cipher_from_seed(Algorithm::kAes128, 41);
  std::vector<std::uint8_t> iv(16, 0x01);
  std::vector<std::uint8_t> payload(50000);
  util::Rng rng{3};
  for (auto& b : payload) {
    b = rng.bernoulli(0.7) ? 0 : static_cast<std::uint8_t>(rng.uniform_int(8));
  }
  double plain_mean = 0.0;
  for (auto b : payload) plain_mean += b;
  plain_mean /= static_cast<double>(payload.size());
  ASSERT_LT(plain_mean, 32.0);  // clearly structured input.
  auto ct = payload;
  ofb_transform_inplace(*cipher, iv, ct);
  double ct_mean = 0.0;
  for (auto b : ct) ct_mean += b;
  ct_mean /= static_cast<double>(ct.size());
  EXPECT_NEAR(ct_mean, 127.5, 2.0);
}

TEST(Keystream, DistinctSegmentIvsGiveUncorrelatedStreams) {
  const auto cipher = make_cipher_from_seed(Algorithm::kAes256, 51);
  std::vector<std::uint8_t> flow_iv(16, 0x77);
  std::vector<std::uint8_t> zeros(4096, 0);
  auto k1 = zeros;
  ofb_transform_inplace(*cipher, segment_iv(*cipher, flow_iv, 1), k1);
  auto k2 = zeros;
  ofb_transform_inplace(*cipher, segment_iv(*cipher, flow_iv, 2), k2);
  // Hamming distance between the streams ~ 50% of bits.
  const double frac =
      static_cast<double>(hamming(k1, k2)) / (8.0 * zeros.size());
  EXPECT_NEAR(frac, 0.5, 0.02);
}

}  // namespace
}  // namespace tv::crypto
