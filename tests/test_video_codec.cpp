#include "video/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "video/bitstream.hpp"
#include "video/frame.hpp"
#include "video/quality.hpp"
#include "video/scene.hpp"

namespace tv::video {
namespace {

FrameSequence test_clip(MotionLevel level, int frames, std::uint64_t seed) {
  SceneParameters p = SceneParameters::preset(level);
  p.width = 128;  // small frames keep the tests fast.
  p.height = 96;
  return SceneGenerator{p, seed}.render_clip(frames);
}

std::vector<ReceivedFrameData> intact_stream(const EncodedStream& stream) {
  std::vector<ReceivedFrameData> out;
  out.reserve(stream.frames.size());
  for (const auto& f : stream.frames) {
    out.push_back(ReceivedFrameData::intact(f.data));
  }
  return out;
}

TEST(Codec, GopStructureIsIppp) {
  const auto clip = test_clip(MotionLevel::kMedium, 25, 1);
  CodecConfig config;
  config.gop_size = 10;
  const Encoder encoder{config};
  const EncodedStream stream = encoder.encode(clip);
  ASSERT_EQ(stream.frames.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(stream.frames[static_cast<std::size_t>(i)].is_i, i % 10 == 0)
        << "frame " << i;
    EXPECT_EQ(stream.frames[static_cast<std::size_t>(i)].index, i);
  }
}

TEST(Codec, IFramesAreMuchLargerThanPFramesForLowMotion) {
  const auto clip = test_clip(MotionLevel::kLow, 20, 2);
  const Encoder encoder{CodecConfig{.gop_size = 10}};
  const EncodedStream stream = encoder.encode(clip);
  // On these small 128x96 test frames the objects cover a larger share of
  // the picture than at CIF, so the ratio is smaller than the ~20-80x seen
  // on full-size clips.
  EXPECT_GT(stream.mean_i_bytes(), 5.0 * stream.mean_p_bytes());
}

TEST(Codec, PFrameSizeGrowsWithMotion) {
  const Encoder encoder{CodecConfig{.gop_size = 10}};
  const double p_low =
      encoder.encode(test_clip(MotionLevel::kLow, 20, 3)).mean_p_bytes();
  const double p_high =
      encoder.encode(test_clip(MotionLevel::kHigh, 20, 3)).mean_p_bytes();
  EXPECT_GT(p_high, 2.0 * p_low);
}

TEST(Codec, LosslessTransportDecodesAboveThirtyDb) {
  for (auto level : {MotionLevel::kLow, MotionLevel::kHigh}) {
    const auto clip = test_clip(level, 15, 4);
    CodecConfig config;
    config.gop_size = 5;
    const Encoder encoder{config};
    const EncodedStream stream = encoder.encode(clip);
    const Decoder decoder{config};
    const FrameSequence decoded =
        decoder.decode_stream(128, 96, intact_stream(stream));
    ASSERT_EQ(decoded.size(), clip.size());
    EXPECT_GT(sequence_psnr(clip, decoded), 30.0)
        << "motion " << to_string(level);
  }
}

TEST(Codec, DecoderMatchesEncoderReconstructionExactly) {
  // The decoder must reproduce the encoder's reference frames bit-exactly,
  // otherwise P-frame prediction drifts.  Decode twice: identical output.
  const auto clip = test_clip(MotionLevel::kMedium, 8, 5);
  CodecConfig config;
  config.gop_size = 8;
  const EncodedStream stream = Encoder{config}.encode(clip);
  const Decoder decoder{config};
  const auto a = decoder.decode_stream(128, 96, intact_stream(stream));
  const auto b = decoder.decode_stream(128, 96, intact_stream(stream));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(luma_mse(a[i], b[i]), 0.0);
  }
}

TEST(Codec, ReconMseEqualsIntactDecodeBitForBit) {
  // build_workload takes its coding-distortion floor from the encoder's
  // reconstruction instead of decoding the intact stream a second time.
  for (auto level : {MotionLevel::kLow, MotionLevel::kMedium,
                     MotionLevel::kHigh}) {
    const auto clip = test_clip(level, 30, 12);
    for (int gop : {1, 8, 15, 30}) {
      CodecConfig config;
      config.gop_size = gop;
      std::vector<double> recon_mse;
      const EncodedStream stream =
          Encoder{config}.encode(clip, nullptr, &recon_mse);
      const FrameSequence decoded =
          Decoder{config}.decode_stream(128, 96, intact_stream(stream));
      ASSERT_EQ(recon_mse.size(), clip.size());
      for (std::size_t i = 0; i < clip.size(); ++i) {
        EXPECT_EQ(recon_mse[i], luma_mse(clip[i], decoded[i]))
            << to_string(level) << " gop " << gop << " frame " << i;
      }
    }
  }
}

TEST(Codec, PooledEncodeMatchesSerial) {
  // GOPs are encoded side by side on a pool: whole GOPs, a short last GOP
  // (23 frames of GOP 10), all-intra GOP 1 and a clip shorter than one
  // GOP must come out as the serial encode does.
  struct Case {
    int frames;
    int gop_size;
  };
  for (const Case c : {Case{20, 10}, Case{23, 10}, Case{9, 1}, Case{7, 10}}) {
    SCOPED_TRACE(::testing::Message() << c.frames << " frames, GOP "
                                      << c.gop_size);
    const auto clip = test_clip(MotionLevel::kHigh, c.frames, 13);
    const Encoder encoder{CodecConfig{.gop_size = c.gop_size}};
    std::vector<double> serial_mse;
    const EncodedStream serial = encoder.encode(clip, nullptr, &serial_mse);
    ASSERT_EQ(serial.frames.size(), clip.size());
    ASSERT_EQ(serial_mse.size(), clip.size());
    for (std::size_t i = 0; i < serial.frames.size(); ++i) {
      EXPECT_EQ(serial.frames[i].index, static_cast<int>(i));
      EXPECT_EQ(serial.frames[i].is_i,
                i % static_cast<std::size_t>(c.gop_size) == 0);
    }
    for (unsigned threads : {1U, 2U, 4U, 8U}) {
      util::ThreadPool pool{threads};
      std::vector<double> pooled_mse{1.0, 2.0};  // replaced, not appended.
      const EncodedStream pooled = encoder.encode(clip, &pool, &pooled_mse);
      ASSERT_EQ(pooled.frames.size(), serial.frames.size());
      for (std::size_t i = 0; i < serial.frames.size(); ++i) {
        EXPECT_EQ(pooled.frames[i].data, serial.frames[i].data)
            << threads << " threads, frame " << i;
        EXPECT_EQ(pooled.frames[i].index, serial.frames[i].index);
        EXPECT_EQ(pooled.frames[i].is_i, serial.frames[i].is_i);
      }
      EXPECT_EQ(pooled_mse, serial_mse) << threads << " threads";
    }
  }
}

// The double-accumulating SAD the motion search used before its integer
// kernel: the oracle it must match exactly.
double sad_double_oracle(const Frame& cur, const Frame& ref, int bx, int by,
                         int dx, int dy) {
  const auto clamp = [](int v, int lo, int hi) {
    return v < lo ? lo : (v > hi ? hi : v);
  };
  double acc = 0.0;
  for (int r = 0; r < 16; ++r) {
    const int ry = clamp(by + dy + r, 0, ref.height() - 1);
    for (int c = 0; c < 16; ++c) {
      const int rx = clamp(bx + dx + c, 0, ref.width() - 1);
      acc += std::abs(static_cast<double>(cur.y(bx + c, by + r)) -
                      static_cast<double>(ref.y(rx, ry)));
    }
  }
  return acc;
}

// FNV-1a over each frame's type and bytes, then the bits of each frame's
// reconstruction MSE.
std::uint64_t encode_digest(const EncodedStream& stream,
                            const std::vector<double>& recon_mse) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  for (const EncodedFrame& f : stream.frames) {
    mix(f.is_i ? 1 : 0);
    for (const std::uint8_t b : f.data) mix(b);
  }
  for (const double m : recon_mse) {
    const auto bits = std::bit_cast<std::uint64_t>(m);
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  return h;
}

TEST(Codec, EncodeMatchesPinnedDigests) {
  // Digests of the encoder before it reused its zero-motion skip test and
  // its search's SAD, over CIF presets at build_workload's quantizers.
  // The high clip crosses the scene cut at frame 45 (intra refresh).
  struct Pinned {
    MotionLevel level;
    double p_qstep;
    int gop;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {
      {MotionLevel::kLow, 14.0, 8, 0x94a64e0540669363ULL},
      {MotionLevel::kLow, 14.0, 30, 0xcf1f7059610bfc8eULL},
      {MotionLevel::kMedium, 18.0, 8, 0x9cd21f0392f48b06ULL},
      {MotionLevel::kMedium, 18.0, 30, 0x6d16033bf0eae514ULL},
      {MotionLevel::kHigh, 24.0, 8, 0x30474b071ea66c20ULL},
      {MotionLevel::kHigh, 24.0, 30, 0x1dd33bbdd6b657f9ULL}};
  util::ThreadPool pool{4};
  for (const auto level :
       {MotionLevel::kLow, MotionLevel::kMedium, MotionLevel::kHigh}) {
    const FrameSequence clip =
        SceneGenerator{SceneParameters::preset(level), 7}.render_clip(
            level == MotionLevel::kHigh ? 48 : 32);
    for (const Pinned& p : pinned) {
      if (p.level != level) continue;
      CodecConfig config;
      config.gop_size = p.gop;
      config.p_qstep = p.p_qstep;
      std::vector<double> mse;
      const EncodedStream serial = Encoder{config}.encode(clip, nullptr, &mse);
      EXPECT_EQ(encode_digest(serial, mse), p.digest)
          << to_string(level) << " gop " << p.gop;
      const EncodedStream pooled = Encoder{config}.encode(clip, &pool, &mse);
      EXPECT_EQ(encode_digest(pooled, mse), p.digest)
          << to_string(level) << " gop " << p.gop << " on a pool";
    }
  }
}

// FNV-1a over the three planes of each frame.
std::uint64_t frames_digest(const FrameSequence& frames) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Frame& f : frames) {
    for (const auto* plane : {&f.y_plane(), &f.u_plane(), &f.v_plane()}) {
      for (const std::uint8_t b : *plane) {
        h ^= b;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

// What a listener may hand the decoder, one way per row of the pinned
// decode digests below.
enum class Damage {
  kIntact,         ///< every byte as sent.
  kIFramesErased,  ///< policy I to the eavesdropper: I-frames unreadable.
  kByteErasures,   ///< random runs of unreadable bytes in half the frames.
  kWrongKey,       ///< every third frame readable but garbled whole.
  kGarbledSlices,  ///< headers intact, slice bytes garbled: slices throw.
  kNoReference,    ///< each frame alone, decoded without a reference.
  kOtherReference  ///< each frame against the previous *source* frame.
};
constexpr int kDamageKinds = 7;

std::vector<ReceivedFrameData> damaged(const EncodedStream& stream,
                                       Damage damage, util::Rng& rng) {
  std::vector<ReceivedFrameData> out = intact_stream(stream);
  for (std::size_t k = 0; k < out.size(); ++k) {
    ReceivedFrameData& r = out[k];
    const std::size_t size = r.data.size();
    switch (damage) {
      case Damage::kIFramesErased:
        if (stream.frames[k].is_i) r = ReceivedFrameData::lost(size);
        break;
      case Damage::kByteErasures:
        if (!rng.bernoulli(0.5)) break;
        for (int run = 1 + static_cast<int>(rng.uniform_int(3)); run > 0;
             --run) {
          const std::size_t at = rng.uniform_int(size);
          const std::size_t end = std::min(size, at + 1 + rng.uniform_int(200));
          for (std::size_t i = at; i < end; ++i) {
            r.data[i] = 0;
            r.byte_ok[i] = false;
          }
        }
        break;
      case Damage::kWrongKey:
        if (k % 3 != 1) break;
        for (std::uint8_t& b : r.data) {
          b ^= static_cast<std::uint8_t>(rng.uniform_int(256));
        }
        break;
      case Damage::kGarbledSlices:
        if (!rng.bernoulli(0.5)) break;
        for (std::size_t i = std::min<std::size_t>(64, size); i < size; ++i) {
          if (rng.bernoulli(0.02)) {
            r.data[i] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(255));
          }
        }
        break;
      default:
        break;
    }
  }
  return out;
}

FrameSequence decode_damaged(const Decoder& decoder, const FrameSequence& clip,
                             const EncodedStream& stream, Damage damage,
                             util::Rng& rng) {
  const std::vector<ReceivedFrameData> received = damaged(stream, damage, rng);
  if (damage != Damage::kNoReference && damage != Damage::kOtherReference) {
    return decoder.decode_stream(stream.width, stream.height, received);
  }
  FrameSequence out;
  for (std::size_t k = 0; k < received.size(); ++k) {
    const Frame* reference =
        damage == Damage::kOtherReference && k > 0 ? &clip[k - 1] : nullptr;
    out.push_back(
        decoder.decode_frame(stream.width, stream.height, received[k], reference)
            .frame);
  }
  return out;
}

TEST(Codec, DecodeMatchesPinnedDigests) {
  // Digests of the decoder before zero-level blocks became byte copies of
  // their prediction, over the encode digests' streams under each Damage.
  struct Pinned {
    MotionLevel level;
    double p_qstep;
    int gop;
    std::uint64_t digest[kDamageKinds];
  };
  const Pinned pinned[] = {
      {MotionLevel::kLow, 14.0, 8,
       {0x19500416d9a64357ULL, 0x5ab6f87e0a14c715ULL,
        0xc0c0aca7f303767bULL, 0x80ca37013c8e4450ULL,
        0x29cf38760b09e973ULL, 0x360b0ea5b1c6af13ULL,
        0xbe56ee3c066aa2f6ULL}},
      {MotionLevel::kLow, 14.0, 30,
       {0xfaea7ba2c4ea3f46ULL, 0xfeee2a80b1892cd4ULL,
        0x0d73ea25a99b8f8fULL, 0x95cdc2911e60649eULL,
        0xd94294066ae84acfULL, 0x9fc52c68ef5982c6ULL,
        0x19c06b1bd6cf3aa6ULL}},
      {MotionLevel::kMedium, 18.0, 8,
       {0xde28821d20cc8429ULL, 0x09ef5a756cf3e34fULL,
        0xa714ace6afe8d4faULL, 0x40cb2527eb812456ULL,
        0x7dba004eed0b9215ULL, 0xd1a8c8cff07cdec1ULL,
        0x234eb96b411ecf76ULL}},
      {MotionLevel::kMedium, 18.0, 30,
       {0xa8206f3139363bc4ULL, 0xc9c35b92a837beb2ULL,
        0xb59d262ca0a71938ULL, 0x3784fdac959c68efULL,
        0x9121361aa2aa5947ULL, 0x400138ad3f5e0c2bULL,
        0x56976fe581b6a2c3ULL}},
      {MotionLevel::kHigh, 24.0, 8,
       {0x23cbebc2eb9a9060ULL, 0x87e8ec4d56ebbb5bULL,
        0x51e25ef5ead842b4ULL, 0x935853c0b08620e4ULL,
        0x928c6f8a5aa7281cULL, 0x0ad55f42ea43fb88ULL,
        0xa3301a8ff3d6fd8aULL}},
      {MotionLevel::kHigh, 24.0, 30,
       {0xd4338794d0c7d075ULL, 0xe9f86bdb3b184e90ULL,
        0x8970bd9862dcdcfeULL, 0x50e42d9f2d478651ULL,
        0xbb6a01fc7a231cebULL, 0xf44fafb30dc737c9ULL,
        0xd6f9c059708f45beULL}}};
  for (const auto level :
       {MotionLevel::kLow, MotionLevel::kMedium, MotionLevel::kHigh}) {
    const FrameSequence clip =
        SceneGenerator{SceneParameters::preset(level), 7}.render_clip(
            level == MotionLevel::kHigh ? 48 : 32);
    for (const Pinned& p : pinned) {
      if (p.level != level) continue;
      CodecConfig config;
      config.gop_size = p.gop;
      config.p_qstep = p.p_qstep;
      const EncodedStream stream = Encoder{config}.encode(clip);
      const Decoder decoder{config};
      util::Rng rng{0xdec0de};
      for (int d = 0; d < kDamageKinds; ++d) {
        EXPECT_EQ(frames_digest(decode_damaged(decoder, clip, stream,
                                               static_cast<Damage>(d), rng)),
                  p.digest[d])
            << to_string(level) << " gop " << p.gop << " damage " << d;
      }
    }
  }
}

TEST(Codec, SadMatchesDoubleOracleIncludingClampedEdges) {
  util::Rng rng{0xad};
  Frame cur(64, 48);
  Frame ref(64, 48);
  Frame black(64, 48);
  Frame white(64, 48);
  for (Frame* f : {&cur, &ref}) {
    for (auto& p : f->y_plane()) {
      p = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
  }
  black.fill(0, 128, 128);
  white.fill(255, 128, 128);
  const std::pair<const Frame*, const Frame*> pairs[] = {
      {&cur, &ref}, {&ref, &cur}, {&black, &white}};
  // Every macroblock, with offsets well past each picture edge so both the
  // interior fast path and every clamped read are exercised.
  for (const auto& [a, b] : pairs) {
    for (int by = 0; by + 16 <= 48; by += 16) {
      for (int bx = 0; bx + 16 <= 64; bx += 16) {
        for (int dy = -20; dy <= 20; ++dy) {
          for (int dx = -20; dx <= 20; ++dx) {
            ASSERT_EQ(static_cast<double>(sad_16x16(*a, *b, bx, by, dx, dy)),
                      sad_double_oracle(*a, *b, bx, by, dx, dy))
                << "block (" << bx << "," << by << ") mv (" << dx << ","
                << dy << ")";
          }
        }
      }
    }
  }
}

TEST(Codec, LostFrameIsConcealedByPreviousOutput) {
  const auto clip = test_clip(MotionLevel::kLow, 6, 6);
  CodecConfig config;
  config.gop_size = 6;
  const EncodedStream stream = Encoder{config}.encode(clip);
  auto received = intact_stream(stream);
  received[3] = ReceivedFrameData::lost(stream.frames[3].data.size());
  const Decoder decoder{config};
  const FrameSequence decoded = decoder.decode_stream(128, 96, received);
  // Frame 3 must equal frame 2's output (freeze concealment).
  EXPECT_DOUBLE_EQ(luma_mse(decoded[3], decoded[2]), 0.0);
}

TEST(Codec, LostIFrameDegradesWholeGop) {
  const auto clip = test_clip(MotionLevel::kHigh, 12, 7);
  CodecConfig config;
  config.gop_size = 6;
  const EncodedStream stream = Encoder{config}.encode(clip);
  auto received = intact_stream(stream);
  received[6] = ReceivedFrameData::lost(stream.frames[6].data.size());
  const Decoder decoder{config};
  const auto intact = decoder.decode_stream(128, 96, intact_stream(stream));
  const auto lossy = decoder.decode_stream(128, 96, received);
  double mse_second_gop = 0.0;
  for (int i = 6; i < 12; ++i) {
    mse_second_gop += luma_mse(intact[static_cast<std::size_t>(i)],
                               lossy[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(mse_second_gop / 6.0, 50.0);
}

TEST(Codec, PartialFrameDecodesAvailableRows) {
  const auto clip = test_clip(MotionLevel::kMedium, 2, 8);
  CodecConfig config;
  config.gop_size = 2;
  const EncodedStream stream = Encoder{config}.encode(clip);
  // Keep only the first 60% of the I-frame's bytes.
  const auto& data = stream.frames[0].data;
  ReceivedFrameData partial = ReceivedFrameData::intact(data);
  for (std::size_t i = data.size() * 3 / 5; i < data.size(); ++i) {
    partial.byte_ok[i] = false;
  }
  const Decoder decoder{config};
  const DecodeResult result = decoder.decode_frame(128, 96, partial, nullptr);
  EXPECT_TRUE(result.header_ok);
  EXPECT_GT(result.decoded_macroblocks, 0);
  EXPECT_LT(result.decoded_macroblocks, result.total_macroblocks);
}

TEST(Codec, HeaderLossKillsTheFrame) {
  const auto clip = test_clip(MotionLevel::kMedium, 1, 9);
  CodecConfig config;
  const EncodedStream stream = Encoder{config}.encode(clip);
  ReceivedFrameData received = ReceivedFrameData::intact(stream.frames[0].data);
  received.byte_ok[2] = false;  // inside the fixed header.
  const Decoder decoder{config};
  const DecodeResult result = decoder.decode_frame(128, 96, received, nullptr);
  EXPECT_FALSE(result.header_ok);
  EXPECT_EQ(result.decoded_macroblocks, 0);
}

TEST(Codec, GarbageInputIsRejectedGracefully) {
  std::vector<std::uint8_t> garbage(500, 0xCD);
  const Decoder decoder{CodecConfig{}};
  const DecodeResult result =
      decoder.decode_frame(kCifWidth, kCifHeight,
                           ReceivedFrameData::intact(garbage), nullptr);
  EXPECT_FALSE(result.header_ok);
}

// A 16-pixel-wide frame of `rows` macroblock rows: header (magic 0x54,
// type 0 = I / 1 = P, index, width, height, rows), the slice-size table
// `sizes`, then `body`.
std::vector<std::uint8_t> crafted_frame(std::uint8_t type, int rows,
                                        const std::vector<std::uint64_t>& sizes,
                                        const std::vector<std::uint8_t>& body) {
  ByteWriter w;
  w.put_u8(0x54);
  w.put_u8(type);
  w.put_u32(0);
  w.put_u16(16);
  w.put_u16(static_cast<std::uint16_t>(16 * rows));
  w.put_u16(static_cast<std::uint16_t>(rows));
  for (const std::uint64_t size : sizes) w.put_varint(size);
  for (const std::uint8_t b : body) w.put_u8(b);
  return w.take();
}

// One intra macroblock whose first block codes the coefficient gaps
// `gaps` (each with level +1) and whose other five blocks are empty.
std::vector<std::uint8_t> intra_mb(const std::vector<std::uint64_t>& gaps) {
  ByteWriter w;
  w.put_varint(gaps.size());
  for (const std::uint64_t gap : gaps) {
    w.put_varint(gap);
    w.put_signed(1);
  }
  for (int b = 1; b < 6; ++b) w.put_varint(0);
  return w.take();
}

// An inter macroblock (mode 1) with motion vector (dx, 0) and no residual.
std::vector<std::uint8_t> inter_mb(std::int64_t dx) {
  ByteWriter w;
  w.put_u8(1);
  w.put_signed(dx);
  w.put_signed(0);
  w.put_u8(0);
  return w.take();
}

int decoded_mbs(std::uint8_t type, const std::vector<std::uint8_t>& slice) {
  Frame reference(16, 16);
  reference.fill(90, 128, 128);
  const Decoder decoder{CodecConfig{}};
  const DecodeResult r = decoder.decode_frame(
      16, 16,
      ReceivedFrameData::intact(crafted_frame(type, 1, {slice.size()}, slice)),
      &reference);
  EXPECT_TRUE(r.header_ok);
  return r.decoded_macroblocks;
}

TEST(Codec, GarbledFieldsAreRejectedBeforeTheyWrap) {
  // Well-formed controls: the last zigzag position, a 3-pixel vector.
  EXPECT_EQ(decoded_mbs(0, intra_mb({63})), 1);
  EXPECT_EQ(decoded_mbs(1, inter_mb(3)), 1);
  // A coefficient gap that would wrap an int, and one past position 63.
  EXPECT_EQ(decoded_mbs(0, intra_mb({(std::uint64_t{1} << 32) + 3})), 0);
  EXPECT_EQ(decoded_mbs(0, intra_mb({63, 0})), 0);
  // A motion vector that would narrow to 0.
  EXPECT_EQ(decoded_mbs(1, inter_mb(std::int64_t{1} << 32)), 0);
  // A slice size that would wrap the offset back inside the frame.
  const Decoder decoder{CodecConfig{}};
  const std::vector<std::uint8_t> frame = crafted_frame(
      0, 2, {~std::uint64_t{0}, 5}, std::vector<std::uint8_t>(8, 0));
  EXPECT_FALSE(
      decoder.decode_frame(16, 32, ReceivedFrameData::intact(frame), nullptr)
          .header_ok);
}

// An intact-looking I-frame header naming a 2048x2048 picture (128 empty
// slices): 140 bytes that once made the decoder allocate a 4 MB plane.
std::vector<std::uint8_t> oversized_frame() {
  ByteWriter w;
  w.put_u8(0x54);
  w.put_u8(0);
  w.put_u32(0);
  w.put_u16(2048);
  w.put_u16(2048);
  w.put_u16(128);
  for (int r = 0; r < 128; ++r) w.put_varint(0);
  return w.take();
}

TEST(Codec, HeaderNamingAnotherSizeIsConcealedAtTheStreamSize) {
  const std::vector<std::uint8_t> bytes = oversized_frame();
  ASSERT_EQ(bytes.size(), 140u);
  const Decoder decoder{CodecConfig{}};
  const DecodeResult gray =
      decoder.decode_frame(128, 96, ReceivedFrameData::intact(bytes), nullptr);
  EXPECT_FALSE(gray.header_ok);
  EXPECT_EQ(gray.decoded_macroblocks, 0);
  EXPECT_EQ(gray.frame.width(), 128);
  EXPECT_EQ(gray.frame.height(), 96);

  Frame reference(128, 96);
  reference.fill(90, 100, 110);
  const DecodeResult copy = decoder.decode_frame(
      128, 96, ReceivedFrameData::intact(bytes), &reference);
  EXPECT_FALSE(copy.header_ok);
  EXPECT_EQ(copy.frame.y_plane(), reference.y_plane());
  EXPECT_EQ(copy.frame.u_plane(), reference.u_plane());

  // A reference of another size is the caller's error, not the stream's.
  EXPECT_THROW((void)decoder.decode_frame(
                   kCifWidth, kCifHeight, ReceivedFrameData::intact(bytes),
                   &reference),
               std::invalid_argument);

  // In a stream, the frame is a lost frame: every output has the stream's
  // size, and the clip still scores.
  const auto clip = test_clip(MotionLevel::kMedium, 4, 12);
  const EncodedStream stream = Encoder{CodecConfig{}}.encode(clip);
  std::vector<ReceivedFrameData> received = intact_stream(stream);
  received[2] = ReceivedFrameData::intact(bytes);
  const FrameSequence decoded = decoder.decode_stream(128, 96, received);
  ASSERT_EQ(decoded.size(), clip.size());
  for (const Frame& f : decoded) {
    EXPECT_EQ(f.width(), 128);
    EXPECT_EQ(f.height(), 96);
  }
  EXPECT_EQ(decoded[2].y_plane(), decoded[1].y_plane());
  EXPECT_GT(sequence_psnr(clip, decoded), 20.0);
}

TEST(Codec, EncodedFrameSizesShrinkWithCoarserQuantizer) {
  const auto clip = test_clip(MotionLevel::kMedium, 10, 10);
  CodecConfig fine;
  fine.gop_size = 10;
  fine.i_qstep = 8.0;
  fine.p_qstep = 10.0;
  CodecConfig coarse = fine;
  coarse.i_qstep = 24.0;
  coarse.p_qstep = 30.0;
  const auto s_fine = Encoder{fine}.encode(clip);
  const auto s_coarse = Encoder{coarse}.encode(clip);
  EXPECT_GT(s_fine.total_bytes(), s_coarse.total_bytes());
}

TEST(Codec, IntraRefreshRecoversWithoutIFrame) {
  // Drop the single I-frame of a high-motion clip entirely; intra-refreshed
  // macroblocks in P-frames must progressively rebuild the picture, which
  // is the mechanism that forces I+a%P policies for fast motion (Fig. 9).
  const auto clip = test_clip(MotionLevel::kHigh, 12, 11);
  CodecConfig config;
  config.gop_size = 12;
  const EncodedStream stream = Encoder{config}.encode(clip);
  auto received = intact_stream(stream);
  received[0] = ReceivedFrameData::lost(stream.frames[0].data.size());
  const Decoder decoder{config};
  const auto decoded = decoder.decode_stream(128, 96, received);
  const double early = luma_mse(clip[1], decoded[1]);
  const double late = luma_mse(clip[11], decoded[11]);
  EXPECT_LT(late, 0.7 * early);
}

TEST(Codec, RejectsInvalidConfigs) {
  EXPECT_THROW(Encoder{CodecConfig{.gop_size = 0}}, std::invalid_argument);
  EXPECT_THROW(Encoder{CodecConfig{.i_qstep = -1.0}}, std::invalid_argument);
  const Encoder encoder{CodecConfig{}};
  EXPECT_THROW(encoder.encode({}), std::invalid_argument);
}

}  // namespace
}  // namespace tv::video
