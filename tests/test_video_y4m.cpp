#include "video/y4m.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "video/scene.hpp"

namespace tv::video {
namespace {

FrameSequence tiny_clip(int frames) {
  SceneParameters p = SceneParameters::preset(MotionLevel::kMedium);
  p.width = 64;
  p.height = 48;
  return SceneGenerator{p, 9}.render_clip(frames);
}

TEST(Y4m, HeaderFormat) {
  const auto clip = tiny_clip(1);
  std::ostringstream out;
  write_y4m(out, clip, 25);
  const std::string s = out.str();
  EXPECT_EQ(s.rfind("YUV4MPEG2 W64 H48 F25:1 Ip A1:1 C420\n", 0), 0u);
  // Header + per-frame "FRAME\n" + planar payload.
  const std::size_t frame_bytes = 64 * 48 + 2 * (32 * 24);
  EXPECT_EQ(s.size(), 37u + 6u + frame_bytes);
}

TEST(Y4m, RoundtripPreservesEveryPixel) {
  const auto clip = tiny_clip(5);
  std::stringstream io;
  write_y4m(io, clip, 30);
  const Y4mClip back = read_y4m(io);
  ASSERT_EQ(back.frames.size(), clip.size());
  EXPECT_EQ(back.fps_numerator, 30);
  EXPECT_EQ(back.fps_denominator, 1);
  for (std::size_t i = 0; i < clip.size(); ++i) {
    EXPECT_EQ(back.frames[i].y_plane(), clip[i].y_plane());
    EXPECT_EQ(back.frames[i].u_plane(), clip[i].u_plane());
    EXPECT_EQ(back.frames[i].v_plane(), clip[i].v_plane());
  }
}

TEST(Y4m, AcceptsChromaSitingVariants) {
  const auto clip = tiny_clip(1);
  std::ostringstream out;
  write_y4m(out, clip);
  std::string s = out.str();
  const auto pos = s.find("C420");
  s.replace(pos, 4, "C420jpeg");
  std::istringstream in{s};
  EXPECT_EQ(read_y4m(in).frames.size(), 1u);
}

TEST(Y4m, RejectsBadStreams) {
  std::istringstream not_y4m{"RIFFxxxx"};
  EXPECT_THROW((void)read_y4m(not_y4m), std::runtime_error);

  std::istringstream wrong_chroma{"YUV4MPEG2 W64 H48 F30:1 C444\nFRAME\n"};
  EXPECT_THROW((void)read_y4m(wrong_chroma), std::runtime_error);

  std::istringstream no_frames{"YUV4MPEG2 W64 H48 F30:1 C420\n"};
  EXPECT_THROW((void)read_y4m(no_frames), std::runtime_error);

  // Truncated payload.
  std::ostringstream out;
  write_y4m(out, tiny_clip(1));
  std::string s = out.str();
  s.resize(s.size() - 100);
  std::istringstream truncated{s};
  EXPECT_THROW((void)read_y4m(truncated), std::runtime_error);

  // Codec-incompatible dimensions.
  std::istringstream odd{"YUV4MPEG2 W60 H48 F30:1 C420\nFRAME\n"};
  EXPECT_THROW((void)read_y4m(odd), std::runtime_error);
}

TEST(Y4m, RejectsMalformedHeaderTagsByName) {
  const auto message_of = [](const std::string& header) {
    std::istringstream in{header + "\nFRAME\n"};
    try {
      (void)read_y4m(in);
    } catch (const std::runtime_error& e) {
      return std::string{e.what()};
    }
    return std::string{"accepted"};
  };
  EXPECT_EQ(message_of("YUV4MPEG2 W H48 F30:1 C420"),
            "read_y4m: bad header tag 'W'");
  EXPECT_EQ(message_of("YUV4MPEG2 W64 H4x8 F30:1 C420"),
            "read_y4m: bad header tag 'H4x8'");
  EXPECT_EQ(message_of("YUV4MPEG2 W99999999999 H48 F30:1 C420"),
            "read_y4m: bad header tag 'W99999999999'");
  EXPECT_EQ(message_of("YUV4MPEG2 W-64 H48 F30:1 C420"),
            "read_y4m: bad header tag 'W-64'");
  // A frame this size would be zero-filled before its bytes are read.
  EXPECT_EQ(message_of("YUV4MPEG2 W1048576 H1048576 F30:1 C420"),
            "read_y4m: bad header tag 'W1048576'");
  EXPECT_EQ(message_of("YUV4MPEG2 W64 H16400 F30:1 C420"),
            "read_y4m: bad header tag 'H16400'");
  EXPECT_EQ(message_of("YUV4MPEG2 W64 H48 F30:0 C420"),
            "read_y4m: bad header tag 'F30:0'");
  EXPECT_EQ(message_of("YUV4MPEG2 W64 H48 F:1 C420"),
            "read_y4m: bad header tag 'F:1'");
  EXPECT_EQ(message_of("YUV4MPEG2 W64 H48 F30: C420"),
            "read_y4m: bad header tag 'F30:'");
}

TEST(Y4m, AcceptsLargestDimensionAndBareFrameRate) {
  std::istringstream in{"YUV4MPEG2 W16384 H16 F25 C420\n"};
  // Parses the header, then fails on the missing frames, not the tags.
  try {
    (void)read_y4m(in);
    FAIL() << "a stream without frames must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "read_y4m: no frames");
  }
}

TEST(Y4m, WriteValidatesInput) {
  EXPECT_THROW((void)write_y4m_file("/nonexistent-dir/x.y4m", tiny_clip(1)),
               std::runtime_error);
  std::ostringstream out;
  EXPECT_THROW((void)write_y4m(out, {}, 30), std::invalid_argument);
  EXPECT_THROW((void)write_y4m(out, tiny_clip(1), 0), std::invalid_argument);
}

}  // namespace
}  // namespace tv::video
