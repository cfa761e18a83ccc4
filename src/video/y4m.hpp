// YUV4MPEG2 (.y4m) reading and writing.
//
// The paper's pipeline starts and ends in raw YUV files (EvalVid converts
// YUV -> H.264 -> MP4 and reconstructs YUV at the receiver).  Y4M is the
// self-describing flavor of that format: any clip this library generates
// or reconstructs can be dumped to disk and played with `ffplay out.y4m`,
// and reference clips from the EvalVid site can be fed in.
#pragma once

#include <iosfwd>
#include <string>

#include "video/frame.hpp"

namespace tv::video {

/// Write a clip as YUV4MPEG2 with 4:2:0 chroma at the given frame rate.
/// Throws std::runtime_error on I/O failure.
void write_y4m(std::ostream& out, const FrameSequence& clip, int fps = 30);
void write_y4m_file(const std::string& path, const FrameSequence& clip,
                    int fps = 30);

/// Parsed Y4M stream.
struct Y4mClip {
  FrameSequence frames;
  int fps_numerator = 30;
  int fps_denominator = 1;
};

/// Read a YUV4MPEG2 stream (C420/C420jpeg/C420mpeg2 only; other chroma
/// taggings throw std::runtime_error).  Frame dimensions must be multiples
/// of 16 to be usable by the codec, and at most 16384; W, H and both F
/// terms must be positive decimals, or the error names the bad tag.
[[nodiscard]] Y4mClip read_y4m(std::istream& in);
[[nodiscard]] Y4mClip read_y4m_file(const std::string& path);

}  // namespace tv::video
