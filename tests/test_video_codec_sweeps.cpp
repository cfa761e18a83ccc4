// Parameterized codec sweeps: the roundtrip and structural invariants must
// hold across GOP sizes, quantizers and motion levels, not just at the
// defaults.
#include <gtest/gtest.h>

#include <tuple>

#include "video/codec.hpp"
#include "video/frame.hpp"
#include "video/quality.hpp"
#include "video/scene.hpp"

namespace tv::video {
namespace {

FrameSequence sweep_clip(MotionLevel level, int frames, std::uint64_t seed) {
  SceneParameters p = SceneParameters::preset(level);
  p.width = 128;
  p.height = 96;
  return SceneGenerator{p, seed}.render_clip(frames);
}

std::vector<ReceivedFrameData> intact(const EncodedStream& stream) {
  std::vector<ReceivedFrameData> out;
  for (const auto& f : stream.frames) {
    out.push_back(ReceivedFrameData::intact(f.data));
  }
  return out;
}

using SweepParam = std::tuple<int /*gop*/, double /*p_qstep*/, int /*level*/>;

class CodecSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CodecSweep, RoundtripStructureAndQuality) {
  const auto [gop, p_qstep, level_idx] = GetParam();
  const auto level = static_cast<MotionLevel>(level_idx);
  const int frames = 2 * gop;
  const auto clip = sweep_clip(level, frames, 31 + gop);
  CodecConfig config;
  config.gop_size = gop;
  config.p_qstep = p_qstep;
  const EncodedStream stream = Encoder{config}.encode(clip);

  // Structure: exactly two I-frames at the GOP boundaries.
  int i_count = 0;
  for (const auto& f : stream.frames) i_count += f.is_i ? 1 : 0;
  EXPECT_EQ(i_count, 2);
  EXPECT_TRUE(stream.frames[0].is_i);
  EXPECT_TRUE(stream.frames[static_cast<std::size_t>(gop)].is_i);

  // Quality: lossless-transport decode stays watchable.
  const Decoder decoder{config};
  const auto decoded = decoder.decode_stream(128, 96, intact(stream));
  const double psnr = sequence_psnr(clip, decoded);
  EXPECT_GT(psnr, 28.0) << "gop=" << gop << " q=" << p_qstep
                        << " level=" << to_string(level);

  // Every frame's bitstream parses completely on its own.
  const Frame* ref = nullptr;
  Frame prev(128, 96);
  for (const auto& f : stream.frames) {
    const auto r =
        decoder.decode_frame(128, 96, ReceivedFrameData::intact(f.data), ref);
    EXPECT_TRUE(r.header_ok);
    EXPECT_EQ(r.decoded_macroblocks, r.total_macroblocks);
    prev = r.frame;
    ref = &prev;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CodecSweep,
    ::testing::Values(SweepParam{5, 14.0, 0}, SweepParam{5, 24.0, 2},
                      SweepParam{10, 18.0, 1}, SweepParam{15, 18.0, 0},
                      SweepParam{15, 26.0, 2}, SweepParam{30, 18.0, 1}));

class LossPosition : public ::testing::TestWithParam<int> {};

TEST_P(LossPosition, EarlierLossesHurtMore) {
  // The monotonicity behind eq. (21): dropping an earlier P-frame of a GOP
  // costs at least as much distortion as dropping a later one.
  const int gop = 12;
  const auto clip = sweep_clip(MotionLevel::kMedium, gop, 47);
  CodecConfig config;
  config.gop_size = gop;
  const EncodedStream stream = Encoder{config}.encode(clip);
  const Decoder decoder{config};
  const auto baseline = decoder.decode_stream(128, 96, intact(stream));

  auto gop_mse_with_loss = [&](int lost) {
    auto received = intact(stream);
    received[static_cast<std::size_t>(lost)] =
        ReceivedFrameData::lost(stream.frames[static_cast<std::size_t>(lost)]
                                    .data.size());
    const auto decoded = decoder.decode_stream(128, 96, received);
    double mse = 0.0;
    for (int i = 0; i < gop; ++i) {
      mse += luma_mse(baseline[static_cast<std::size_t>(i)],
                      decoded[static_cast<std::size_t>(i)]);
    }
    return mse / gop;
  };

  const int early = GetParam();
  const int late = early + 4;
  ASSERT_LT(late, gop);
  // Allow a little slack: intra-refresh can make individual frames heal.
  EXPECT_GE(gop_mse_with_loss(early) * 1.25, gop_mse_with_loss(late))
      << "early=" << early << " late=" << late;
}

INSTANTIATE_TEST_SUITE_P(Positions, LossPosition, ::testing::Values(1, 3, 5));

TEST(CodecSweeps, StreamSizeGrowsWithMotionAcrossGops) {
  for (int gop : {6, 12}) {
    CodecConfig config;
    config.gop_size = gop;
    const Encoder encoder{config};
    const auto low = encoder.encode(sweep_clip(MotionLevel::kLow, gop, 5));
    const auto high = encoder.encode(sweep_clip(MotionLevel::kHigh, gop, 5));
    EXPECT_GT(high.total_bytes(), low.total_bytes()) << "gop " << gop;
  }
}

TEST(CodecSweeps, SmallerGopMeansMoreIntraBytes) {
  const auto clip = sweep_clip(MotionLevel::kMedium, 30, 9);
  CodecConfig small;
  small.gop_size = 5;
  CodecConfig large;
  large.gop_size = 30;
  const auto s = Encoder{small}.encode(clip);
  const auto l = Encoder{large}.encode(clip);
  // Six I-frames vs one: the short-GOP stream carries more total bytes.
  EXPECT_GT(s.total_bytes(), l.total_bytes());
}

}  // namespace
}  // namespace tv::video
