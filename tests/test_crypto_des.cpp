#include "crypto/des.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace tv::crypto {
namespace {

// --- The bit-by-bit reference transform --------------------------------
// The straightforward DES that the table-driven Des replaced:
// every permutation walks the standard's 1-based, MSB-first tables one bit
// at a time.  It is the oracle for the random-key equality tests below.
namespace reference {

// All tables use the standard's 1-based, MSB-first bit numbering.

constexpr std::array<int, 64> kInitialPermutation = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9,  1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7};

constexpr std::array<int, 64> kFinalPermutation = {
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9,  49, 17, 57, 25};

constexpr std::array<int, 48> kExpansion = {
    32, 1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,  8,  9,  10, 11,
    12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18, 19, 20, 21, 20, 21,
    22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1};

constexpr std::array<int, 32> kPermutationP = {
    16, 7, 20, 21, 29, 12, 28, 17, 1,  15, 23, 26, 5,  18, 31, 10,
    2,  8, 24, 14, 32, 27, 3,  9,  19, 13, 30, 6,  22, 11, 4,  25};

constexpr std::array<int, 56> kPc1 = {
    57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34, 26, 18,
    10, 2,  59, 51, 43, 35, 27, 19, 11, 3,  60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7,  62, 54, 46, 38, 30, 22,
    14, 6,  61, 53, 45, 37, 29, 21, 13, 5,  28, 20, 12, 4};

constexpr std::array<int, 48> kPc2 = {
    14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10, 23, 19, 12, 4,
    26, 8,  16, 7,  27, 20, 13, 2,  41, 52, 31, 37, 47, 55, 30, 40,
    51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32};

constexpr std::array<int, 16> kShifts = {1, 1, 2, 2, 2, 2, 2, 2,
                                         1, 2, 2, 2, 2, 2, 2, 1};

constexpr std::uint8_t kSboxes[8][64] = {
    {14, 4,  13, 1, 2,  15, 11, 8,  3,  10, 6,  12, 5,  9,  0, 7,
     0,  15, 7,  4, 14, 2,  13, 1,  10, 6,  12, 11, 9,  5,  3, 8,
     4,  1,  14, 8, 13, 6,  2,  11, 15, 12, 9,  7,  3,  10, 5, 0,
     15, 12, 8,  2, 4,  9,  1,  7,  5,  11, 3,  14, 10, 0,  6, 13},
    {15, 1,  8,  14, 6,  11, 3,  4,  9,  7, 2,  13, 12, 0, 5,  10,
     3,  13, 4,  7,  15, 2,  8,  14, 12, 0, 1,  10, 6,  9, 11, 5,
     0,  14, 7,  11, 10, 4,  13, 1,  5,  8, 12, 6,  9,  3, 2,  15,
     13, 8,  10, 1,  3,  15, 4,  2,  11, 6, 7,  12, 0,  5, 14, 9},
    {10, 0,  9,  14, 6, 3,  15, 5,  1,  13, 12, 7,  11, 4,  2,  8,
     13, 7,  0,  9,  3, 4,  6,  10, 2,  8,  5,  14, 12, 11, 15, 1,
     13, 6,  4,  9,  8, 15, 3,  0,  11, 1,  2,  12, 5,  10, 14, 7,
     1,  10, 13, 0,  6, 9,  8,  7,  4,  15, 14, 3,  11, 5,  2,  12},
    {7,  13, 14, 3, 0,  6,  9,  10, 1,  2, 8, 5,  11, 12, 4,  15,
     13, 8,  11, 5, 6,  15, 0,  3,  4,  7, 2, 12, 1,  10, 14, 9,
     10, 6,  9,  0, 12, 11, 7,  13, 15, 1, 3, 14, 5,  2,  8,  4,
     3,  15, 0,  6, 10, 1,  13, 8,  9,  4, 5, 11, 12, 7,  2,  14},
    {2,  12, 4,  1,  7,  10, 11, 6,  8,  5,  3,  15, 13, 0, 14, 9,
     14, 11, 2,  12, 4,  7,  13, 1,  5,  0,  15, 10, 3,  9, 8,  6,
     4,  2,  1,  11, 10, 13, 7,  8,  15, 9,  12, 5,  6,  3, 0,  14,
     11, 8,  12, 7,  1,  14, 2,  13, 6,  15, 0,  9,  10, 4, 5,  3},
    {12, 1,  10, 15, 9, 2,  6,  8,  0,  13, 3,  4,  14, 7,  5,  11,
     10, 15, 4,  2,  7, 12, 9,  5,  6,  1,  13, 14, 0,  11, 3,  8,
     9,  14, 15, 5,  2, 8,  12, 3,  7,  0,  4,  10, 1,  13, 11, 6,
     4,  3,  2,  12, 9, 5,  15, 10, 11, 14, 1,  7,  6,  0,  8,  13},
    {4,  11, 2,  14, 15, 0, 8,  13, 3,  12, 9, 7,  5,  10, 6,  1,
     13, 0,  11, 7,  4,  9, 1,  10, 14, 3,  5, 12, 2,  15, 8,  6,
     1,  4,  11, 13, 12, 3, 7,  14, 10, 15, 6, 8,  0,  5,  9,  2,
     6,  11, 13, 8,  1,  4, 10, 7,  9,  5,  0, 15, 14, 2,  3,  12},
    {13, 2,  8,  4, 6,  15, 11, 1,  10, 9,  3,  14, 5,  0,  12, 7,
     1,  15, 13, 8, 10, 3,  7,  4,  12, 5,  6,  11, 0,  14, 9,  2,
     7,  11, 4,  1, 9,  12, 14, 2,  0,  6,  10, 13, 15, 3,  5,  8,
     2,  1,  14, 7, 4,  10, 8,  13, 15, 12, 9,  0,  3,  5,  6,  11}};

// Permute `in_bits`-wide value `x` (MSB-first numbering) into an
// `out_bits`-wide value per `table` (1-based source positions).
template <std::size_t N>
std::uint64_t permute(std::uint64_t x, const std::array<int, N>& table,
                      int in_bits) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < N; ++i) {
    out <<= 1;
    out |= (x >> (in_bits - table[i])) & 1ULL;
  }
  return out;
}

std::uint32_t feistel(std::uint32_t r, std::uint64_t subkey) {
  const std::uint64_t expanded = permute(r, kExpansion, 32) ^ subkey;
  std::uint32_t out = 0;
  for (int box = 0; box < 8; ++box) {
    const auto six =
        static_cast<std::uint8_t>((expanded >> (42 - 6 * box)) & 0x3f);
    const int row = ((six & 0x20) >> 4) | (six & 0x01);
    const int col = (six >> 1) & 0x0f;
    out = (out << 4) | kSboxes[box][row * 16 + col];
  }
  return static_cast<std::uint32_t>(permute(out, kPermutationP, 32));
}

constexpr std::uint32_t rotl28(std::uint32_t x, int k) {
  return ((x << k) | (x >> (28 - k))) & 0x0fffffff;
}

std::array<std::uint64_t, 16> key_schedule(std::uint64_t key) {
  std::array<std::uint64_t, 16> subkeys{};
  const std::uint64_t cd = permute(key, kPc1, 64);
  auto c = static_cast<std::uint32_t>((cd >> 28) & 0x0fffffff);
  auto d = static_cast<std::uint32_t>(cd & 0x0fffffff);
  for (std::size_t round = 0; round < 16; ++round) {
    c = rotl28(c, kShifts[round]);
    d = rotl28(d, kShifts[round]);
    subkeys[round] =
        permute((static_cast<std::uint64_t>(c) << 28) | d, kPc2, 56);
  }
  return subkeys;
}

std::uint64_t crypt(std::uint64_t key, std::uint64_t block, bool decrypt) {
  const std::array<std::uint64_t, 16> subkeys = key_schedule(key);
  const std::uint64_t ip = permute(block, kInitialPermutation, 64);
  auto l = static_cast<std::uint32_t>(ip >> 32);
  auto r = static_cast<std::uint32_t>(ip & 0xffffffff);
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint32_t next_r =
        l ^ feistel(r, subkeys[decrypt ? 15 - i : i]);
    l = r;
    r = next_r;
  }
  return permute((static_cast<std::uint64_t>(r) << 32) | l, kFinalPermutation,
                 64);
}

}  // namespace reference

std::uint64_t load_be64(std::span<const std::uint8_t> in) {
  std::uint64_t x = 0;
  for (const std::uint8_t b : in) x = (x << 8) | b;
  return x;
}

std::vector<std::uint8_t> random_key(util::Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> key(size);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  return key;
}


// Classic worked example (Ronald L. Rivest's / standard textbook vector):
// key 133457799BBCDFF1, plaintext 0123456789ABCDEF -> 85E813540F0AB405.
const std::array<std::uint8_t, 8> kKey = {0x13, 0x34, 0x57, 0x79,
                                          0x9B, 0xBC, 0xDF, 0xF1};
const std::array<std::uint8_t, 8> kPlain = {0x01, 0x23, 0x45, 0x67,
                                            0x89, 0xAB, 0xCD, 0xEF};
const std::array<std::uint8_t, 8> kCipher = {0x85, 0xE8, 0x13, 0x54,
                                             0x0F, 0x0A, 0xB4, 0x05};

TEST(Des, KnownVectorEncrypts) {
  const Des des{kKey};
  std::array<std::uint8_t, 8> out{};
  des.encrypt_block(kPlain, out);
  EXPECT_EQ(out, kCipher);
}

TEST(Des, KnownVectorDecrypts) {
  const Des des{kKey};
  std::array<std::uint8_t, 8> out{};
  des.decrypt_block(kCipher, out);
  EXPECT_EQ(out, kPlain);
}

TEST(Des, RivestRecurrenceFirstSteps) {
  // X_{i+1} = DES(X_i, X_i) starting from 9474B8E8C73BCA7D reaches
  // 8DA744E0C94E5E17 after one step (R. Rivest's DES validation chain).
  const std::array<std::uint8_t, 8> x0 = {0x94, 0x74, 0xB8, 0xE8,
                                          0xC7, 0x3B, 0xCA, 0x7D};
  const Des des{x0};
  std::array<std::uint8_t, 8> x1{};
  des.encrypt_block(x0, x1);
  const std::array<std::uint8_t, 8> expected = {0x8D, 0xA7, 0x44, 0xE0,
                                                0xC9, 0x4E, 0x5E, 0x17};
  EXPECT_EQ(x1, expected);
}

class DesRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DesRoundtrip, RandomBlocksRoundtrip) {
  util::Rng rng{GetParam()};
  std::vector<std::uint8_t> key(8);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  const Des des{key};
  for (int i = 0; i < 64; ++i) {
    std::array<std::uint8_t, 8> pt{};
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng());
    std::array<std::uint8_t, 8> ct{};
    std::array<std::uint8_t, 8> back{};
    des.encrypt_block(pt, ct);
    des.decrypt_block(ct, back);
    EXPECT_EQ(back, pt);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DesRoundtrip,
                         ::testing::Values(10u, 20u, 30u, 40u));

TEST(TripleDes, DegeneratesToSingleDesWithRepeatedKey) {
  // Built by index, not repeated range-inserts: GCC 12's -Wstringop-overflow
  // misfires on the unrolled insert loop at -O3 (see src/net/pcap.cpp).
  std::vector<std::uint8_t> key24(24);
  for (std::size_t i = 0; i < key24.size(); ++i) key24[i] = kKey[i % kKey.size()];
  const TripleDes tdes{key24};
  std::array<std::uint8_t, 8> out{};
  tdes.encrypt_block(kPlain, out);
  EXPECT_EQ(out, kCipher);  // EDE with K1=K2=K3 is single DES.
}

TEST(TripleDes, RoundtripWithDistinctKeys) {
  util::Rng rng{99};
  std::vector<std::uint8_t> key(24);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  const TripleDes tdes{key};
  for (int i = 0; i < 32; ++i) {
    std::array<std::uint8_t, 8> pt{};
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng());
    std::array<std::uint8_t, 8> ct{};
    std::array<std::uint8_t, 8> back{};
    tdes.encrypt_block(pt, ct);
    tdes.decrypt_block(ct, back);
    EXPECT_EQ(back, pt);
    EXPECT_NE(ct, pt);
  }
}

TEST(TripleDes, DiffersFromSingleDesWithDistinctKeys) {
  util::Rng rng{123};
  std::vector<std::uint8_t> key(24);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  const TripleDes tdes{key};
  const Des des{std::span<const std::uint8_t>(key).subspan(0, 8)};
  std::array<std::uint8_t, 8> t{};
  std::array<std::uint8_t, 8> s{};
  tdes.encrypt_block(kPlain, t);
  des.encrypt_block(kPlain, s);
  EXPECT_NE(t, s);
}

TEST(Des, TableTransformMatchesBitByBitReference) {
  util::Rng rng{0xde5};
  for (int k = 0; k < 64; ++k) {
    const std::vector<std::uint8_t> key = random_key(rng, 8);
    const std::uint64_t key64 = load_be64(key);
    const Des des{key};
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t block = rng();
      EXPECT_EQ(des.encrypt64(block), reference::crypt(key64, block, false));
      EXPECT_EQ(des.decrypt64(block), reference::crypt(key64, block, true));
    }
  }
}

TEST(TripleDes, TableTransformMatchesBitByBitReference) {
  util::Rng rng{0x3de5};
  for (int k = 0; k < 32; ++k) {
    const std::vector<std::uint8_t> key = random_key(rng, 24);
    const std::span<const std::uint8_t> keys{key};
    const std::uint64_t k1 = load_be64(keys.subspan(0, 8));
    const std::uint64_t k2 = load_be64(keys.subspan(8, 8));
    const std::uint64_t k3 = load_be64(keys.subspan(16, 8));
    const TripleDes tdes{key};
    for (int i = 0; i < 8; ++i) {
      std::array<std::uint8_t, 8> in{};
      for (auto& b : in) b = static_cast<std::uint8_t>(rng());
      const std::uint64_t block = load_be64(in);
      std::array<std::uint8_t, 8> out{};
      tdes.encrypt_block(in, out);
      EXPECT_EQ(load_be64(out),
                reference::crypt(
                    k3, reference::crypt(k2, reference::crypt(k1, block, false),
                                         true),
                    false));
      tdes.decrypt_block(in, out);
      EXPECT_EQ(load_be64(out),
                reference::crypt(
                    k1, reference::crypt(k2, reference::crypt(k3, block, true),
                                         false),
                    true));
    }
  }
}

TEST(DesFamily, RejectsBadSizes) {
  std::vector<std::uint8_t> seven(7, 0);
  EXPECT_THROW(Des{seven}, std::invalid_argument);
  std::vector<std::uint8_t> sixteen(16, 0);
  EXPECT_THROW(TripleDes{sixteen}, std::invalid_argument);
  const Des des{kKey};
  std::array<std::uint8_t, 7> small{};
  std::array<std::uint8_t, 8> out{};
  EXPECT_THROW(des.encrypt_block(small, out), std::invalid_argument);
}

TEST(DesFamily, Metadata) {
  const Des des{kKey};
  EXPECT_EQ(des.block_size(), 8u);
  EXPECT_EQ(des.name(), "DES");
  std::vector<std::uint8_t> key24(24, 1);
  const TripleDes tdes{key24};
  EXPECT_EQ(tdes.block_size(), 8u);
  EXPECT_EQ(tdes.key_size(), 24u);
  EXPECT_EQ(tdes.name(), "3DES");
}

}  // namespace
}  // namespace tv::crypto
