#include "crypto/ofb.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/des.hpp"
#include "crypto/suite.hpp"
#include "util/rng.hpp"

namespace tv::crypto {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Ofb, NistSp80038aAes128Vector) {
  // NIST SP 800-38A, F.4.1 OFB-AES128: first block.
  const std::vector<std::uint8_t> key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                         0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                         0x09, 0xcf, 0x4f, 0x3c};
  const std::vector<std::uint8_t> iv = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05,
                                        0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b,
                                        0x0c, 0x0d, 0x0e, 0x0f};
  const std::vector<std::uint8_t> plaintext = {
      0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96,
      0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17, 0x2a};
  const std::vector<std::uint8_t> expected = {
      0x3b, 0x3f, 0xd9, 0x2e, 0xb7, 0x2d, 0xad, 0x20,
      0x33, 0x34, 0x49, 0xf8, 0xe8, 0x3c, 0xfb, 0x4a};
  const Aes aes{key};
  std::vector<std::uint8_t> ciphertext(plaintext.size());
  ofb_transform(aes, iv, plaintext, ciphertext);
  EXPECT_EQ(ciphertext, expected);
}

class OfbInvolution
    : public ::testing::TestWithParam<std::pair<Algorithm, std::size_t>> {};

TEST_P(OfbInvolution, ApplyingTwiceRestoresInput) {
  const auto [alg, size] = GetParam();
  const auto cipher = make_cipher_from_seed(alg, 7);
  const auto iv = random_bytes(cipher->block_size(), 11);
  const auto plaintext = random_bytes(size, 13);
  auto ciphertext = plaintext;
  ofb_transform_inplace(*cipher, iv, ciphertext);
  if (size > 0) {
    EXPECT_NE(ciphertext, plaintext);
  }
  auto decrypted = ciphertext;
  ofb_transform_inplace(*cipher, iv, decrypted);
  EXPECT_EQ(decrypted, plaintext);
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndSizes, OfbInvolution,
    ::testing::Values(std::pair{Algorithm::kAes128, std::size_t{0}},
                      std::pair{Algorithm::kAes128, std::size_t{1}},
                      std::pair{Algorithm::kAes128, std::size_t{15}},
                      std::pair{Algorithm::kAes128, std::size_t{16}},
                      std::pair{Algorithm::kAes128, std::size_t{1460}},
                      std::pair{Algorithm::kAes256, std::size_t{17}},
                      std::pair{Algorithm::kAes256, std::size_t{1460}},
                      std::pair{Algorithm::kTripleDes, std::size_t{7}},
                      std::pair{Algorithm::kTripleDes, std::size_t{8}},
                      std::pair{Algorithm::kTripleDes, std::size_t{1460}}));

TEST(Ofb, ChunkedStreamMatchesOneShot) {
  const auto cipher = make_cipher_from_seed(Algorithm::kAes256, 3);
  const auto iv = random_bytes(16, 4);
  auto data = random_bytes(1000, 5);
  auto oneshot = data;
  ofb_transform_inplace(*cipher, iv, oneshot);

  OfbStream stream{*cipher, iv};
  auto chunked = data;
  std::size_t pos = 0;
  for (std::size_t chunk : {1u, 7u, 16u, 100u, 300u, 576u}) {
    stream.apply(std::span<std::uint8_t>(chunked).subspan(pos, chunk));
    pos += chunk;
  }
  EXPECT_EQ(pos, chunked.size());
  EXPECT_EQ(chunked, oneshot);
}

TEST(Ofb, KeystreamIndependentOfPlaintext) {
  // OFB is a synchronous stream cipher: C xor P must be identical for any
  // plaintext under the same key/IV.
  const auto cipher = make_cipher_from_seed(Algorithm::kAes128, 21);
  const auto iv = random_bytes(16, 22);
  const auto p1 = random_bytes(256, 23);
  const auto p2 = random_bytes(256, 24);
  auto c1 = p1;
  ofb_transform_inplace(*cipher, iv, c1);
  auto c2 = p2;
  ofb_transform_inplace(*cipher, iv, c2);
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(c1[i] ^ p1[i], c2[i] ^ p2[i]);
  }
}

TEST(Ofb, ErrorsDoNotPropagate) {
  // Flipping one ciphertext bit flips exactly that plaintext bit
  // (Section 5's rationale for choosing OFB).
  const auto cipher = make_cipher_from_seed(Algorithm::kAes256, 31);
  const auto iv = random_bytes(16, 32);
  const auto plaintext = random_bytes(400, 33);
  auto ciphertext = plaintext;
  ofb_transform_inplace(*cipher, iv, ciphertext);
  ciphertext[100] ^= 0x10;
  auto decoded = ciphertext;
  ofb_transform_inplace(*cipher, iv, decoded);
  for (std::size_t i = 0; i < plaintext.size(); ++i) {
    if (i == 100) {
      EXPECT_EQ(decoded[i], plaintext[i] ^ 0x10);
    } else {
      EXPECT_EQ(decoded[i], plaintext[i]);
    }
  }
}

TEST(Ofb, SegmentIvsDifferPerSequenceNumber) {
  const auto cipher = make_cipher_from_seed(Algorithm::kAes128, 41);
  const auto flow_iv = random_bytes(16, 42);
  const auto iv0 = segment_iv(*cipher, flow_iv, 0);
  const auto iv1 = segment_iv(*cipher, flow_iv, 1);
  const auto iv0_again = segment_iv(*cipher, flow_iv, 0);
  EXPECT_NE(iv0, iv1);
  EXPECT_EQ(iv0, iv0_again);
  EXPECT_EQ(iv0.size(), cipher->block_size());
}

TEST(Ofb, RejectsWrongIvSize) {
  const auto cipher = make_cipher_from_seed(Algorithm::kAes128, 51);
  const auto short_iv = random_bytes(8, 52);
  std::vector<std::uint8_t> data(16, 0);
  EXPECT_THROW(ofb_transform_inplace(*cipher, short_iv, data),
               std::invalid_argument);
  EXPECT_THROW((void)segment_iv(*cipher, short_iv, 0), std::invalid_argument);
}

}  // namespace
}  // namespace tv::crypto
