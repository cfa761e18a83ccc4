// Property-based OFB invariants (Section 5) over random keys, IVs and
// segment lengths for every algorithm of Table 1, via tests/proptest.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/ofb.hpp"
#include "crypto/suite.hpp"
#include "proptest.hpp"

namespace tv::crypto {
namespace {

constexpr Algorithm kAlgorithms[] = {Algorithm::kAes128, Algorithm::kAes256,
                                     Algorithm::kTripleDes};

class OfbProperty : public ::testing::TestWithParam<Algorithm> {};

// OFB is an involution: encryption and decryption are the same XOR against
// the same keystream, so applying the transform twice restores the input
// for any key, IV and length (including the empty segment).
TEST_P(OfbProperty, EncryptDecryptIdentity) {
  const Algorithm alg = GetParam();
  const auto config = proptest::Config::from_env(0x0fb1d, 40);
  proptest::check("OFB encrypt-decrypt identity", config,
                  [&](util::Rng& rng, std::uint64_t) {
                    const auto key =
                        proptest::random_bytes(rng, key_size(alg));
                    const auto cipher = make_cipher(alg, key);
                    const auto iv =
                        proptest::random_bytes(rng, cipher->block_size());
                    const auto plaintext = proptest::random_bytes(
                        rng, proptest::random_size(rng, 0, 384));
                    std::vector<std::uint8_t> ciphertext(plaintext.size());
                    ofb_transform(*cipher, iv, plaintext, ciphertext);
                    std::vector<std::uint8_t> decrypted(plaintext.size());
                    ofb_transform(*cipher, iv, ciphertext, decrypted);
                    EXPECT_EQ(decrypted, plaintext);
                  });
}

// The keystream depends only on (key, IV), never on the data or on how the
// segment is chunked: a shorter segment's ciphertext is a prefix of a
// longer one's, and an incremental OfbStream split at random points agrees
// with the one-shot transform.
TEST_P(OfbProperty, KeystreamPrefixInvariance) {
  const Algorithm alg = GetParam();
  const auto config = proptest::Config::from_env(0x0fb2d, 40);
  proptest::check(
      "OFB keystream prefix invariance", config,
      [&](util::Rng& rng, std::uint64_t) {
        const auto key = proptest::random_bytes(rng, key_size(alg));
        const auto cipher = make_cipher(alg, key);
        const auto iv = proptest::random_bytes(rng, cipher->block_size());
        const auto data =
            proptest::random_bytes(rng, proptest::random_size(rng, 1, 384));
        std::vector<std::uint8_t> full(data.size());
        ofb_transform(*cipher, iv, data, full);

        const std::size_t cut = proptest::random_size(rng, 0, data.size());
        std::vector<std::uint8_t> head_ct(data.begin(),
                                          data.begin() +
                                              static_cast<long>(cut));
        ofb_transform_inplace(*cipher, iv, head_ct);
        EXPECT_TRUE(std::equal(head_ct.begin(), head_ct.end(), full.begin()))
            << "prefix of length " << cut << " diverged";

        std::vector<std::uint8_t> chunked = data;
        OfbStream stream{*cipher, iv};
        std::size_t pos = 0;
        while (pos < chunked.size()) {
          const std::size_t len =
              proptest::random_size(rng, 1, chunked.size() - pos);
          stream.apply(std::span<std::uint8_t>{chunked.data() + pos, len});
          pos += len;
        }
        EXPECT_EQ(chunked, full);
      });
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, OfbProperty,
                         ::testing::ValuesIn(kAlgorithms),
                         [](const auto& info) {
                           return std::string{to_string(info.param)} == "3DES"
                                      ? std::string{"TripleDes"}
                                      : std::string{to_string(info.param)};
                         });

// --- Harness self-tests. ---------------------------------------------------

TEST(ProptestHarness, CasesAreDeterministicInSeed) {
  proptest::Config config;
  config.seed = 42;
  config.cases = 5;
  std::vector<std::vector<std::uint8_t>> first, second;
  proptest::check("collect", config, [&](util::Rng& rng, std::uint64_t) {
    first.push_back(proptest::random_bytes(rng, 16));
  });
  proptest::check("collect", config, [&](util::Rng& rng, std::uint64_t) {
    second.push_back(proptest::random_bytes(rng, 16));
  });
  EXPECT_EQ(first, second);
}

TEST(ProptestHarness, FailurePrintsReproductionSeed) {
  ::testing::TestPartResultArray results;
  {
    ::testing::ScopedFakeTestPartResultReporter reporter(
        ::testing::ScopedFakeTestPartResultReporter::
            INTERCEPT_ONLY_CURRENT_THREAD,
        &results);
    proptest::Config config;
    config.seed = 123;
    config.cases = 10;
    proptest::check("always fails", config,
                    [](util::Rng&, std::uint64_t) {
                      ADD_FAILURE() << "intentional probe failure";
                    });
  }
  // One re-emitted body failure plus the reproduction summary, and the
  // property stopped at the first failing case.
  ASSERT_EQ(results.size(), 2);
  const std::string summary = results.GetTestPartResult(1).message();
  EXPECT_NE(summary.find("TV_PROPTEST_SEED=123"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("TV_PROPTEST_CASES=1"), std::string::npos)
      << summary;
}

}  // namespace
}  // namespace tv::crypto
