#include "crypto/des.hpp"

#include <bit>
#include <stdexcept>

namespace tv::crypto {

namespace {

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
// `out_bits`-wide value per `table` (1-based source positions).  The key
// schedule and the tables below use it; the block transform does not.
template <std::size_t N>
constexpr std::uint64_t permute(std::uint64_t x,
                                const std::array<int, N>& table, int in_bits) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < N; ++i) {
    out <<= 1;
    out |= (x >> (in_bits - table[i])) & 1ULL;
  }
  return out;
}

// The block transform's lookup tables, derived at compile time from the
// standard's tables above.  A permutation moves bits independently, so IP
// (or FP) of a block is the OR of the permuted images of its eight bytes;
// S-box i feeds only its own four bits into P, so S-box∘P is eight
// 64-entry tables whose outputs OR together.
struct Tables {
  std::uint64_t ip[8][256] = {};  ///< IP of a block whose byte j is v.
  std::uint64_t fp[8][256] = {};  ///< FP of a block whose byte j is v.
  std::uint32_t sp[8][64] = {};   ///< P of S-box i's output for input six.

  constexpr Tables() {
    for (int j = 0; j < 8; ++j) {
      for (std::uint64_t v = 0; v < 256; ++v) {
        const std::uint64_t x = v << (56 - 8 * j);
        ip[j][v] = permute(x, kInitialPermutation, 64);
        fp[j][v] = permute(x, kFinalPermutation, 64);
      }
    }
    for (int i = 0; i < 8; ++i) {
      for (int six = 0; six < 64; ++six) {
        const int row = ((six & 0x20) >> 4) | (six & 0x01);
        const int col = (six >> 1) & 0x0f;
        const std::uint64_t out = std::uint64_t{kSboxes[i][row * 16 + col]}
                                  << (28 - 4 * i);
        sp[i][six] =
            static_cast<std::uint32_t>(permute(out, kPermutationP, 32));
      }
    }
  }
};

constexpr Tables kTables;

// Bytes are numbered MSB first, as the standard numbers bits.
std::uint64_t permute_bytes(std::uint64_t x,
                            const std::uint64_t (&table)[8][256]) {
  std::uint64_t out = 0;
  for (int j = 0; j < 8; ++j) out |= table[j][(x >> (56 - 8 * j)) & 0xff];
  return out;
}

// The expansion E's six-bit chunk i is bits 4i..4i+5 of r in the
// standard's numbering (bit 0 standing for bit 32): rotating r left by
// 4i-1 brings them to the top six places.
std::uint32_t feistel(std::uint32_t r,
                      const std::array<std::uint8_t, 8>& key) {
  std::uint32_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= kTables.sp[i][(std::rotl(r, 4 * i - 1) >> 26) ^
                         key[static_cast<std::size_t>(i)]];
  }
  return out;
}

std::uint64_t load_be64(std::span<const std::uint8_t> in) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x = (x << 8) | in[static_cast<std::size_t>(i)];
  return x;
}

void store_be64(std::uint64_t x, std::span<std::uint8_t> out) {
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x & 0xff);
    x >>= 8;
  }
}

constexpr std::uint32_t rotl28(std::uint32_t x, int k) {
  return ((x << k) | (x >> (28 - k))) & 0x0fffffff;
}

}  // namespace

Des::Des(std::span<const std::uint8_t> key) {
  if (key.size() != 8) throw std::invalid_argument{"Des: key must be 8 bytes"};
  const std::uint64_t k = load_be64(key);
  const std::uint64_t cd = permute(k, kPc1, 64);  // 56 bits.
  auto c = static_cast<std::uint32_t>((cd >> 28) & 0x0fffffff);
  auto d = static_cast<std::uint32_t>(cd & 0x0fffffff);
  for (int round = 0; round < 16; ++round) {
    c = rotl28(c, kShifts[static_cast<std::size_t>(round)]);
    d = rotl28(d, kShifts[static_cast<std::size_t>(round)]);
    const std::uint64_t merged =
        (static_cast<std::uint64_t>(c) << 28) | d;  // 56 bits.
    const std::uint64_t subkey = permute(merged, kPc2, 56);  // 48 bits.
    for (int i = 0; i < 8; ++i) {
      subkeys_[static_cast<std::size_t>(round)][static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((subkey >> (42 - 6 * i)) & 0x3f);
    }
  }
}

std::uint64_t Des::encrypt64(std::uint64_t block) const {
  const std::uint64_t ip = permute_bytes(block, kTables.ip);
  auto l = static_cast<std::uint32_t>(ip >> 32);
  auto r = static_cast<std::uint32_t>(ip & 0xffffffff);
  for (int round = 0; round < 16; ++round) {
    const std::uint32_t next_r =
        l ^ feistel(r, subkeys_[static_cast<std::size_t>(round)]);
    l = r;
    r = next_r;
  }
  // Pre-output swaps halves: R16 L16.
  const std::uint64_t preout = (static_cast<std::uint64_t>(r) << 32) | l;
  return permute_bytes(preout, kTables.fp);
}

std::uint64_t Des::decrypt64(std::uint64_t block) const {
  const std::uint64_t ip = permute_bytes(block, kTables.ip);
  auto l = static_cast<std::uint32_t>(ip >> 32);
  auto r = static_cast<std::uint32_t>(ip & 0xffffffff);
  for (int round = 15; round >= 0; --round) {
    const std::uint32_t next_r =
        l ^ feistel(r, subkeys_[static_cast<std::size_t>(round)]);
    l = r;
    r = next_r;
  }
  const std::uint64_t preout = (static_cast<std::uint64_t>(r) << 32) | l;
  return permute_bytes(preout, kTables.fp);
}

void Des::encrypt_block(std::span<const std::uint8_t> in,
                        std::span<std::uint8_t> out) const {
  if (in.size() != 8 || out.size() != 8) {
    throw std::invalid_argument{"Des::encrypt_block: need 8-byte buffers"};
  }
  store_be64(encrypt64(load_be64(in)), out);
}

void Des::decrypt_block(std::span<const std::uint8_t> in,
                        std::span<std::uint8_t> out) const {
  if (in.size() != 8 || out.size() != 8) {
    throw std::invalid_argument{"Des::decrypt_block: need 8-byte buffers"};
  }
  store_be64(decrypt64(load_be64(in)), out);
}

void Des::encrypt_blocks(std::span<const std::uint8_t> in,
                         std::span<std::uint8_t> out, std::size_t n) const {
  check_batch_args(in.size(), out.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    store_be64(encrypt64(load_be64(in.subspan(i * 8, 8))),
               out.subspan(i * 8, 8));
  }
}

void Des::ofb_keystream(std::span<std::uint8_t> feedback,
                        std::span<std::uint8_t> out, std::size_t n) const {
  if (feedback.size() < 8) {
    throw std::invalid_argument{"Des::ofb_keystream: feedback too small"};
  }
  check_batch_args(out.size(), out.size(), n);
  std::uint64_t fb = load_be64(feedback.first(8));
  for (std::size_t i = 0; i < n; ++i) {
    fb = encrypt64(fb);
    store_be64(fb, out.subspan(i * 8, 8));
  }
  store_be64(fb, feedback.first(8));
}

TripleDes::TripleDes(std::span<const std::uint8_t> key)
    : k1_(key.size() == 24 ? key.subspan(0, 8) : key),
      k2_(key.size() == 24 ? key.subspan(8, 8) : key),
      k3_(key.size() == 24 ? key.subspan(16, 8) : key) {
  if (key.size() != 24) {
    throw std::invalid_argument{"TripleDes: key must be 24 bytes"};
  }
}

void TripleDes::encrypt_block(std::span<const std::uint8_t> in,
                              std::span<std::uint8_t> out) const {
  if (in.size() != 8 || out.size() != 8) {
    throw std::invalid_argument{"TripleDes::encrypt_block: need 8-byte buffers"};
  }
  store_be64(ede64(load_be64(in)), out);
}

void TripleDes::encrypt_blocks(std::span<const std::uint8_t> in,
                               std::span<std::uint8_t> out,
                               std::size_t n) const {
  check_batch_args(in.size(), out.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    store_be64(ede64(load_be64(in.subspan(i * 8, 8))), out.subspan(i * 8, 8));
  }
}

void TripleDes::ofb_keystream(std::span<std::uint8_t> feedback,
                              std::span<std::uint8_t> out,
                              std::size_t n) const {
  if (feedback.size() < 8) {
    throw std::invalid_argument{"TripleDes::ofb_keystream: feedback too small"};
  }
  check_batch_args(out.size(), out.size(), n);
  std::uint64_t fb = load_be64(feedback.first(8));
  for (std::size_t i = 0; i < n; ++i) {
    fb = ede64(fb);
    store_be64(fb, out.subspan(i * 8, 8));
  }
  store_be64(fb, feedback.first(8));
}

void TripleDes::decrypt_block(std::span<const std::uint8_t> in,
                              std::span<std::uint8_t> out) const {
  if (in.size() != 8 || out.size() != 8) {
    throw std::invalid_argument{"TripleDes::decrypt_block: need 8-byte buffers"};
  }
  store_be64(k1_.decrypt64(k2_.encrypt64(k3_.decrypt64(load_be64(in)))), out);
}

}  // namespace tv::crypto
