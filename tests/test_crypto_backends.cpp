// Backend-equivalence and batched-API tests for the cipher redesign.
//
// The contract under test: every backend (scalar, AES-NI) and every call
// shape (per-block, batched, OFB stream) of the same algorithm+key
// produces byte-identical output.  That is what lets make_cipher() pick
// AES-NI by default without moving a single golden file.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "crypto/aes_ni.hpp"
#include "crypto/ofb.hpp"
#include "crypto/suite.hpp"
#include "util/cycle_clock.hpp"
#include "util/rng.hpp"

namespace tv::crypto {
namespace {

std::vector<std::uint8_t> sequential_key(std::size_t n) {
  std::vector<std::uint8_t> key(n);
  for (std::size_t i = 0; i < n; ++i) key[i] = static_cast<std::uint8_t>(i);
  return key;
}

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng() & 0xff);
  return out;
}

constexpr std::array<Algorithm, 3> kAlgorithms = {
    Algorithm::kAes128, Algorithm::kAes256, Algorithm::kTripleDes};

// FIPS-197 Appendix C vectors through the AES-NI backend: hardware rounds
// must match the reference cipher exactly, not just self-consistently.
const std::array<std::uint8_t, 16> kFipsPlain = {
    0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
    0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};

TEST(AesNiBackend, Fips197Vectors) {
  if (!aes_ni_available()) GTEST_SKIP() << "no AES-NI on this CPU/build";
  const struct {
    std::size_t key_bytes;
    std::array<std::uint8_t, 16> expected;
  } cases[] = {
      {16,
       {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7,
        0x80, 0x70, 0xb4, 0xc5, 0x5a}},
      {24,
       {0xdd, 0xa9, 0x7c, 0xa4, 0x86, 0x4c, 0xdf, 0xe0, 0x6e, 0xaf, 0x70,
        0xa0, 0xec, 0x0d, 0x71, 0x91}},
      {32,
       {0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49,
        0x90, 0x4b, 0x49, 0x60, 0x89}},
  };
  for (const auto& c : cases) {
    const auto cipher = make_aes_ni(sequential_key(c.key_bytes));
    std::array<std::uint8_t, 16> out{};
    cipher->encrypt_block(kFipsPlain, out);
    EXPECT_EQ(out, c.expected) << "key bytes " << c.key_bytes;
    std::array<std::uint8_t, 16> back{};
    cipher->decrypt_block(out, back);
    EXPECT_EQ(back, kFipsPlain) << "key bytes " << c.key_bytes;
  }
}

TEST(AesNiBackend, SelectionRules) {
  // 3DES never routes to AES-NI; a forced kAesNi request for it throws.
  EXPECT_FALSE(aes_ni_selected(Algorithm::kTripleDes));
  EXPECT_THROW(make_cipher_from_seed(Algorithm::kTripleDes, 1,
                                     CipherBackend::kAesNi),
               std::runtime_error);
  for (Algorithm alg : {Algorithm::kAes128, Algorithm::kAes256}) {
    EXPECT_EQ(aes_ni_selected(alg), aes_ni_available());
    const auto cipher = make_cipher_from_seed(alg, 1, CipherBackend::kAuto);
    EXPECT_EQ(cipher->key_size(), alg == Algorithm::kAes128 ? 16u : 32u);
  }
  if (!aes_ni_available()) {
    EXPECT_THROW(
        make_cipher_from_seed(Algorithm::kAes128, 1, CipherBackend::kAesNi),
        std::runtime_error);
  }
}

// Batched encrypt_blocks must equal a per-block loop, on every backend.
TEST(BatchedApi, EncryptBlocksMatchesPerBlockLoop) {
  util::Rng rng{20130807};
  for (Algorithm alg : kAlgorithms) {
    for (CipherBackend backend : {CipherBackend::kScalar,
                                  CipherBackend::kAuto}) {
      const auto cipher = make_cipher_from_seed(alg, 42, backend);
      const std::size_t block = cipher->block_size();
      for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{17}, std::size_t{64}}) {
        const auto plain = random_bytes(rng, n * block);
        std::vector<std::uint8_t> batched(plain.size());
        std::vector<std::uint8_t> looped(plain.size());
        cipher->encrypt_blocks(plain, batched, n);
        for (std::size_t i = 0; i < n; ++i) {
          cipher->encrypt_block(
              std::span<const std::uint8_t>{plain.data() + i * block, block},
              std::span<std::uint8_t>{looped.data() + i * block, block});
        }
        EXPECT_EQ(batched, looped)
            << to_string(alg) << "/" << to_string(backend) << " n=" << n;
      }
    }
  }
}

TEST(BatchedApi, RejectsShortSpans) {
  const auto cipher =
      make_cipher_from_seed(Algorithm::kAes128, 7, CipherBackend::kScalar);
  std::vector<std::uint8_t> buf(64);
  EXPECT_THROW(cipher->encrypt_blocks(
                   std::span<const std::uint8_t>{buf.data(), 48}, buf, 4),
               std::invalid_argument);
  EXPECT_THROW(cipher->encrypt_blocks(
                   buf, std::span<std::uint8_t>{buf.data(), 48}, 4),
               std::invalid_argument);
}

// The acceptance property of the redesign: scalar and AES-NI backends are
// indistinguishable through the OFB path for arbitrary payload lengths.
TEST(BackendEquivalence, IdenticalOfbCiphertextForRandomLengths) {
  util::Rng rng{777};
  for (Algorithm alg : kAlgorithms) {
    const auto reference =
        make_cipher_from_seed(alg, 99, CipherBackend::kScalar);
    std::vector<std::unique_ptr<BlockCipher>> others;
    others.push_back(make_cipher_from_seed(alg, 99, CipherBackend::kAuto));
    if (alg != Algorithm::kTripleDes && aes_ni_available()) {
      others.push_back(make_cipher_from_seed(alg, 99, CipherBackend::kAesNi));
    }
    const std::vector<std::uint8_t> iv(reference->block_size(), 0x24);
    for (int trial = 0; trial < 24; ++trial) {
      const std::size_t len = static_cast<std::size_t>(rng() % 4097);
      const auto plain = random_bytes(rng, len);
      std::vector<std::uint8_t> expected(len);
      ofb_transform(*reference, iv, plain, expected);
      for (const auto& other : others) {
        std::vector<std::uint8_t> got(len);
        ofb_transform(*other, iv, plain, got);
        EXPECT_EQ(got, expected) << to_string(alg) << " len=" << len;
      }
    }
  }
}

TEST(OfbStreamApi, ResetEqualsFreshStream) {
  util::Rng rng{31337};
  const auto cipher =
      make_cipher_from_seed(Algorithm::kAes128, 5, CipherBackend::kAuto);
  const std::vector<std::uint8_t> iv1(cipher->block_size(), 0x11);
  const std::vector<std::uint8_t> iv2(cipher->block_size(), 0x22);
  const auto plain = random_bytes(rng, 1500);

  // One reused stream across two segments...
  OfbStream reused{*cipher};
  auto seg1 = plain;
  reused.reset(iv1);
  reused.apply(seg1);
  auto seg2 = plain;
  reused.reset(iv2);
  reused.apply(seg2);

  // ...must equal two fresh single-segment streams.
  std::vector<std::uint8_t> fresh1(plain.size());
  std::vector<std::uint8_t> fresh2(plain.size());
  ofb_transform(*cipher, iv1, plain, fresh1);
  ofb_transform(*cipher, iv2, plain, fresh2);
  EXPECT_EQ(seg1, fresh1);
  EXPECT_EQ(seg2, fresh2);
  EXPECT_NE(seg1, seg2);

  // Unseeded use is a programming error, loudly.
  OfbStream unseeded{*cipher};
  auto buf = plain;
  EXPECT_THROW(unseeded.apply(buf), std::logic_error);
}

TEST(OfbSpanApi, SpanOutMatchesStreamAndAliasing) {
  util::Rng rng{4242};
  for (Algorithm alg : kAlgorithms) {
    const auto cipher = make_cipher_from_seed(alg, 11, CipherBackend::kAuto);
    const std::vector<std::uint8_t> iv(cipher->block_size(), 0x5c);
    const auto plain = random_bytes(rng, 999);
    auto expected = plain;
    OfbStream{*cipher, iv}.apply(expected);

    std::vector<std::uint8_t> out(plain.size());
    ofb_transform(*cipher, iv, plain, out);
    EXPECT_EQ(out, expected);

    auto in_place = plain;
    ofb_transform(*cipher, iv, in_place, in_place);
    EXPECT_EQ(in_place, expected);

    std::vector<std::uint8_t> wrong_size(plain.size() + 1);
    EXPECT_THROW(ofb_transform(*cipher, iv, plain, wrong_size),
                 std::invalid_argument);
  }
}

TEST(OfbSpanApi, SegmentIvSpanMatchesVectorOverload) {
  const auto cipher =
      make_cipher_from_seed(Algorithm::kAes256, 13, CipherBackend::kAuto);
  const std::vector<std::uint8_t> flow_iv(cipher->block_size(), 0x77);
  for (std::uint64_t seq : {0ULL, 1ULL, 65535ULL, 0x123456789ULL}) {
    const auto expected = segment_iv(*cipher, flow_iv, seq);
    std::vector<std::uint8_t> out(cipher->block_size());
    segment_iv(*cipher, flow_iv, seq, out);
    EXPECT_EQ(out, expected) << "seq=" << seq;
  }
}

// Cross-check the cost-model ordering against reality: the scalar
// implementations this model describes must actually rank
// AES128 < AES256 < 3DES per byte on this machine.
TEST(CostModel, RelativeCostOrderingMatchesMeasurement) {
  if (!util::cycle_clock_available()) {
    GTEST_SKIP() << "no cycle counter on this target";
  }
  ASSERT_LT(relative_cost_per_byte(Algorithm::kAes128),
            relative_cost_per_byte(Algorithm::kAes256));
  ASSERT_LT(relative_cost_per_byte(Algorithm::kAes256),
            relative_cost_per_byte(Algorithm::kTripleDes));

  // Best of many rounds, the three ciphers interleaved within each round
  // (in a rotating order), so a burst of load from other processes slows
  // all three alike instead of one cipher's whole measurement: best of 3
  // back to back could not tell AES128 from AES256 under a loaded ctest -j.
  constexpr Algorithm kAlgorithms[] = {Algorithm::kAes128, Algorithm::kAes256,
                                       Algorithm::kTripleDes};
  constexpr int kRounds = 25;
  std::vector<std::uint8_t> buf(64 * 1024, 0xa5);
  std::uint64_t best[3] = {~0ULL, ~0ULL, ~0ULL};
  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < 3; ++k) {
      const int a = (round + k) % 3;
      const auto cipher = make_cipher_from_seed(kAlgorithms[a], 2013,
                                                CipherBackend::kScalar);
      const std::vector<std::uint8_t> iv(cipher->block_size(), 0x3c);
      OfbStream stream{*cipher, iv};
      const std::uint64_t c0 = util::cycle_now();
      stream.apply(buf);
      best[a] = std::min(best[a], util::cycle_now() - c0);
    }
  }
  const auto per_byte = [&buf](std::uint64_t cycles) {
    return static_cast<double>(cycles) / static_cast<double>(buf.size());
  };
  const double aes128 = per_byte(best[0]);
  const double aes256 = per_byte(best[1]);
  const double des3 = per_byte(best[2]);
  EXPECT_LT(aes128, aes256) << "aes128=" << aes128 << " aes256=" << aes256;
  EXPECT_LT(aes256, des3) << "aes256=" << aes256 << " 3des=" << des3;
}

}  // namespace
}  // namespace tv::crypto
