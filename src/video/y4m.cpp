#include "video/y4m.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace tv::video {

namespace {

/// Largest accepted W or H: a 16384x16384 4:2:0 frame is 384 MiB, so a
/// header cannot make the reader allocate without bound.
constexpr int kMaxDimension = 16384;

/// The decimal that is all of tag[from, to), within [lo, hi]; throws
/// naming the tag otherwise.
int tag_value(const std::string& tag, std::size_t from, std::size_t to,
              int lo, int hi) {
  int value = 0;
  const char* const end = tag.data() + to;
  const auto [ptr, ec] = std::from_chars(tag.data() + from, end, value);
  if (ec != std::errc{} || ptr != end || value < lo || value > hi) {
    throw std::runtime_error{"read_y4m: bad header tag '" + tag + "'"};
  }
  return value;
}

}  // namespace

void write_y4m(std::ostream& out, const FrameSequence& clip, int fps) {
  if (clip.empty()) throw std::invalid_argument{"write_y4m: empty clip"};
  if (fps <= 0) throw std::invalid_argument{"write_y4m: bad fps"};
  const int w = clip.front().width();
  const int h = clip.front().height();
  out << "YUV4MPEG2 W" << w << " H" << h << " F" << fps << ":1 Ip A1:1 C420\n";
  for (const Frame& f : clip) {
    if (f.width() != w || f.height() != h) {
      throw std::invalid_argument{"write_y4m: mixed frame sizes"};
    }
    out << "FRAME\n";
    out.write(reinterpret_cast<const char*>(f.y_plane().data()),
              static_cast<std::streamsize>(f.y_plane().size()));
    out.write(reinterpret_cast<const char*>(f.u_plane().data()),
              static_cast<std::streamsize>(f.u_plane().size()));
    out.write(reinterpret_cast<const char*>(f.v_plane().data()),
              static_cast<std::streamsize>(f.v_plane().size()));
  }
  if (!out) throw std::runtime_error{"write_y4m: stream failure"};
}

void write_y4m_file(const std::string& path, const FrameSequence& clip,
                    int fps) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error{"write_y4m_file: cannot open " + path};
  write_y4m(out, clip, fps);
}

Y4mClip read_y4m(std::istream& in) {
  std::string header;
  if (!std::getline(in, header)) {
    throw std::runtime_error{"read_y4m: missing stream header"};
  }
  std::istringstream tokens{header};
  std::string magic;
  tokens >> magic;
  if (magic != "YUV4MPEG2") {
    throw std::runtime_error{"read_y4m: not a YUV4MPEG2 stream"};
  }
  int width = 0;
  int height = 0;
  Y4mClip clip;
  std::string tag;
  while (tokens >> tag) {
    switch (tag[0]) {
      case 'W': width = tag_value(tag, 1, tag.size(), 1, kMaxDimension); break;
      case 'H': height = tag_value(tag, 1, tag.size(), 1, kMaxDimension); break;
      case 'F': {
        const auto colon = std::min(tag.find(':'), tag.size());
        clip.fps_numerator = tag_value(tag, 1, colon, 1, INT_MAX);
        if (colon < tag.size()) {
          clip.fps_denominator =
              tag_value(tag, colon + 1, tag.size(), 1, INT_MAX);
        }
        break;
      }
      case 'C':
        if (tag != "C420" && tag != "C420jpeg" && tag != "C420mpeg2" &&
            tag != "C420paldv") {
          throw std::runtime_error{"read_y4m: unsupported chroma " + tag};
        }
        break;
      default:
        break;  // interlacing/aspect tags are irrelevant here.
    }
  }
  if (width <= 0 || height <= 0) {
    throw std::runtime_error{"read_y4m: missing dimensions"};
  }
  if (width % 16 != 0 || height % 16 != 0) {
    throw std::runtime_error{
        "read_y4m: dimensions must be multiples of 16 for the codec"};
  }

  std::string frame_line;
  while (std::getline(in, frame_line)) {
    if (frame_line.rfind("FRAME", 0) != 0) {
      throw std::runtime_error{"read_y4m: expected FRAME marker"};
    }
    Frame f(width, height);
    in.read(reinterpret_cast<char*>(f.y_plane().data()),
            static_cast<std::streamsize>(f.y_plane().size()));
    in.read(reinterpret_cast<char*>(f.u_plane().data()),
            static_cast<std::streamsize>(f.u_plane().size()));
    in.read(reinterpret_cast<char*>(f.v_plane().data()),
            static_cast<std::streamsize>(f.v_plane().size()));
    if (!in) throw std::runtime_error{"read_y4m: truncated frame data"};
    clip.frames.push_back(std::move(f));
  }
  if (clip.frames.empty()) {
    throw std::runtime_error{"read_y4m: no frames"};
  }
  return clip;
}

Y4mClip read_y4m_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"read_y4m_file: cannot open " + path};
  return read_y4m(in);
}

}  // namespace tv::video
