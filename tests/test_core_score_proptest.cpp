// Differential property test of the lossless-aware stream scorer.
//
// core::score_stream decodes only from a GOP's first damaged frame and
// takes every other frame, with its MSE, from the workload's cached
// lossless decode.  The full decode it replaced — Decoder::decode_stream
// over every frame, then video::sequence_psnr and video::sequence_mos —
// is kept here, and only here, as the oracle: over seeded random loss,
// encryption and degradation masks the two must agree bit for bit, for
// the receiver, the eavesdropper and a receiver holding the wrong key.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/experiment.hpp"
#include "crypto/suite.hpp"
#include "net/packetizer.hpp"
#include "proptest.hpp"
#include "util/thread_pool.hpp"
#include "video/quality.hpp"

namespace tv::core {
namespace {

constexpr int kGop = 6;
constexpr int kFrames = 18;

const Workload& workload_for(video::MotionLevel motion) {
  static const Workload low =
      build_workload(video::MotionLevel::kLow, kGop, kFrames, 31);
  static const Workload high =
      build_workload(video::MotionLevel::kHigh, kGop, kFrames, 32);
  return motion == video::MotionLevel::kLow ? low : high;
}

/// The oracle: decode every frame, keep them all, score the sequence.
StreamScore reference_score(const Workload& w,
                            const std::vector<video::ReceivedFrameData>& f) {
  const video::Decoder decoder{w.codec};
  const video::FrameSequence decoded =
      decoder.decode_stream(w.stream.width, w.stream.height, f);
  return {video::sequence_psnr(w.clip, decoded),
          video::sequence_mos(w.clip, decoded)};
}

void expect_bitwise_equal(const StreamScore& got, const StreamScore& want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.psnr_db),
            std::bit_cast<std::uint64_t>(want.psnr_db))
      << got.psnr_db << " vs " << want.psnr_db;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mos),
            std::bit_cast<std::uint64_t>(want.mos))
      << got.mos << " vs " << want.mos;
}

/// Drop every packet of frame `frame`.
void lose_frame(const std::vector<net::VideoPacket>& packets, int frame,
                std::vector<bool>& delivered) {
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (packets[i].frame_index == frame) delivered[i] = false;
  }
}

/// One of the loss shapes the scorer must get right, drawn at random.
std::vector<bool> random_delivery(
    util::Rng& rng, const std::vector<net::VideoPacket>& packets) {
  const std::size_t n = packets.size();
  std::vector<bool> delivered(n, true);
  switch (rng.uniform_int(7)) {
    case 0:  // nothing lost.
      break;
    case 1:  // a single packet.
      delivered[rng.uniform_int(n)] = false;
      break;
    case 2: {  // a burst.
      const std::size_t begin = rng.uniform_int(n);
      const std::size_t end = std::min(n, begin + 1 + rng.uniform_int(12));
      for (std::size_t i = begin; i < end; ++i) delivered[i] = false;
      break;
    }
    case 3:  // a whole I-frame.
      lose_frame(packets,
                 kGop * static_cast<int>(rng.uniform_int(kFrames / kGop)),
                 delivered);
      break;
    case 4:  // the first frame.
      lose_frame(packets, 0, delivered);
      break;
    case 5:  // everything.
      delivered.assign(n, false);
      break;
    default: {  // independent losses.
      const double p = rng.uniform(0.01, 0.3);
      for (std::size_t i = 0; i < n; ++i) delivered[i] = !rng.bernoulli(p);
      break;
    }
  }
  return delivered;
}

policy::EncryptionPolicy random_policy(util::Rng& rng) {
  static constexpr policy::Mode kModes[] = {
      policy::Mode::kNone, policy::Mode::kIFrames, policy::Mode::kPFrames,
      policy::Mode::kAll, policy::Mode::kIPlusFractionP,
      policy::Mode::kFractionI};
  static constexpr crypto::Algorithm kAlgorithms[] = {
      crypto::Algorithm::kAes128, crypto::Algorithm::kAes256,
      crypto::Algorithm::kTripleDes};
  policy::EncryptionPolicy p;
  p.mode = kModes[rng.uniform_int(std::size(kModes))];
  p.algorithm = kAlgorithms[rng.uniform_int(std::size(kAlgorithms))];
  p.fraction = rng.uniform(0.0, 1.0);
  return p;
}

TEST(ScoreStreamProperty, MatchesFullDecodeBitwise) {
  const auto config = proptest::Config::from_env(0x5c0e, 40);
  proptest::check(
      "score_stream == decode_stream + sequence_psnr/mos", config,
      [](util::Rng& rng, std::uint64_t case_seed) {
        const Workload& w = workload_for(rng.bernoulli(0.5)
                                             ? video::MotionLevel::kLow
                                             : video::MotionLevel::kHigh);
        const policy::EncryptionPolicy policy = random_policy(rng);
        Flow flow{w, policy, case_seed};
        if (rng.bernoulli(0.3)) {
          // Packets the sender degraded to cleartext under queue pressure.
          TransferResult transfer;
          transfer.degraded_cleartext.resize(flow.packets().size());
          for (std::size_t i = 0; i < flow.packets().size(); ++i) {
            transfer.degraded_cleartext[i] = rng.bernoulli(0.2);
          }
          flow.ship(transfer);
        }
        const int frame_count = static_cast<int>(w.stream.frames.size());
        const std::vector<bool> delivered =
            random_delivery(rng, flow.packets());

        for (const bool decrypt : {true, false}) {
          const auto frames = flow.frames(delivered, decrypt);
          expect_bitwise_equal(score_stream(w, frames),
                               reference_score(w, frames));
        }
        // A receiver holding the wrong key decrypts to garbage: whole,
        // readable frames whose bytes differ from the sent ones.
        const auto wrong_key =
            crypto::make_cipher_from_seed(policy.algorithm, case_seed + 1);
        const auto garbled = net::reassemble(
            flow.packets(), delivered, frame_count, wrong_key.get(),
            flow.iv());
        expect_bitwise_equal(score_stream(w, garbled),
                             reference_score(w, garbled));
      });
}

TEST(ScoreStream, IntactStreamScoresTheCodingFloor) {
  for (const auto motion :
       {video::MotionLevel::kLow, video::MotionLevel::kHigh}) {
    const Workload& w = workload_for(motion);
    // The encoder's reconstruction is what the decoder outputs: the
    // cached lossless MSEs average to base_mse exactly.
    const LosslessDecode& lossless = w.lossless();
    ASSERT_EQ(lossless.mse.size(), w.clip.size());
    double sum = 0.0;
    for (const double m : lossless.mse) sum += m;
    EXPECT_EQ(sum / static_cast<double>(lossless.mse.size()), w.base_mse);
    for (std::size_t k = 0; k < w.stream.frames.size(); ++k) {
      EXPECT_EQ(lossless.standalone[k], w.stream.frames[k].is_i) << k;
    }

    const Flow flow{w, {policy::Mode::kAll, crypto::Algorithm::kAes128, 0.0},
                    9};
    const std::vector<bool> all(flow.packets().size(), true);
    const StreamScore score = score_stream(w, flow.frames(all, true));
    EXPECT_EQ(score.psnr_db, video::psnr_from_mse(w.base_mse));
    expect_bitwise_equal(score, reference_score(w, flow.frames(all, true)));
  }
}

TEST(ScoreStream, CopiesAgainFromTheNextIntactIFrame) {
  // Damage one P-frame of the first GOP: frames after it drift until the
  // next I-frame, which decodes without its reference, so the rest of the
  // stream is the lossless decode again.
  const Workload& w = workload_for(video::MotionLevel::kHigh);
  const Flow flow{w, {}, 3};
  std::vector<bool> delivered(flow.packets().size(), true);
  lose_frame(flow.packets(), 2, delivered);
  const auto frames = flow.frames(delivered, true);
  expect_bitwise_equal(score_stream(w, frames), reference_score(w, frames));

  const video::Decoder decoder{w.codec};
  const video::FrameSequence decoded =
      decoder.decode_stream(w.stream.width, w.stream.height, frames);
  const LosslessDecode& lossless = w.lossless();
  EXPECT_NE(decoded[2].y_plane(), lossless.frames[2].y_plane());
  for (std::size_t k = kGop; k < decoded.size(); ++k) {
    EXPECT_EQ(decoded[k].y_plane(), lossless.frames[k].y_plane()) << k;
  }
}

TEST(ScoreStream, RejectsAFrameCountMismatch) {
  const Workload& w = workload_for(video::MotionLevel::kLow);
  EXPECT_THROW((void)score_stream(w, {}), std::invalid_argument);
  const std::vector<video::ReceivedFrameData> short_stream(
      w.clip.size() - 1, video::ReceivedFrameData::lost(16));
  EXPECT_THROW((void)score_stream(w, short_stream), std::invalid_argument);
}

// Concurrent repetitions share one workload's lazily built lossless
// decode.  Named for the shared-workload suite so the ThreadSanitizer pass
// of run_checks.sh (-R 'ThreadPool|Sweep|WorkloadCache|...') runs it.
TEST(WorkloadCache, ConcurrentScoresShareOneLosslessDecode) {
  const Workload w = build_workload(video::MotionLevel::kMedium, kGop,
                                    kFrames, 33);
  const Flow flow{w, {policy::Mode::kIFrames, crypto::Algorithm::kAes128, 0.0},
                  5};
  constexpr std::size_t kScores = 8;
  std::vector<std::vector<bool>> masks;
  util::Rng rng{77};
  for (std::size_t i = 0; i < kScores; ++i) {
    masks.push_back(random_delivery(rng, flow.packets()));
  }
  std::vector<StreamScore> pooled(kScores);
  {
    util::ThreadPool pool{4};
    pool.parallel_for(kScores, [&](std::size_t i) {
      pooled[i] = score_stream(w, flow.frames(masks[i], i % 2 == 0));
    });
  }
  for (std::size_t i = 0; i < kScores; ++i) {
    expect_bitwise_equal(pooled[i],
                         reference_score(w, flow.frames(masks[i], i % 2 == 0)));
  }
}

}  // namespace
}  // namespace tv::core
