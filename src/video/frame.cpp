#include "video/frame.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace tv::video {

Frame::Frame(int width, int height) : width_(width), height_(height) {
  if (width <= 0 || height <= 0 || width % 16 != 0 || height % 16 != 0) {
    throw std::invalid_argument{"Frame: dimensions must be positive multiples of 16"};
  }
  y_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
            0);
  u_.assign(static_cast<std::size_t>(width / 2) *
                static_cast<std::size_t>(height / 2),
            128);
  v_.assign(static_cast<std::size_t>(width / 2) *
                static_cast<std::size_t>(height / 2),
            128);
}

void Frame::fill(std::uint8_t yv, std::uint8_t uv, std::uint8_t vv) {
  y_.assign(y_.size(), yv);
  u_.assign(u_.size(), uv);
  v_.assign(v_.size(), vv);
}

double luma_mse(const Frame& a, const Frame& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument{"luma_mse: dimension mismatch"};
  }
  const auto& ya = a.y_plane();
  const auto& yb = b.y_plane();
  // Integer squared differences: exact, and equal to a double running sum
  // for any frame below 2^53 / 255^2 pixels (every partial sum is then an
  // integer a double holds exactly).  Chunks of 2^16 pixels keep each
  // partial sum inside a uint32, which the autovectorizer handles cheaply.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::uint64_t acc = 0;
  for (std::size_t begin = 0; begin < ya.size(); begin += kChunk) {
    const std::size_t end = std::min(ya.size(), begin + kChunk);
    std::uint32_t part = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const int d = static_cast<int>(ya[i]) - static_cast<int>(yb[i]);
      part += static_cast<std::uint32_t>(d * d);
    }
    acc += part;
  }
  return static_cast<double>(acc) / static_cast<double>(ya.size());
}

double psnr_from_mse(double mse) {
  if (mse <= 0.0) return std::numeric_limits<double>::infinity();
  return 20.0 * std::log10(255.0 / std::sqrt(mse));
}

double mse_from_psnr(double psnr_db) {
  const double ratio = 255.0 / std::pow(10.0, psnr_db / 20.0);
  return ratio * ratio;
}

double luma_psnr(const Frame& a, const Frame& b) {
  return psnr_from_mse(luma_mse(a, b));
}

double sequence_psnr(const FrameSequence& reference,
                     const FrameSequence& received) {
  if (reference.size() != received.size() || reference.empty()) {
    throw std::invalid_argument{"sequence_psnr: length mismatch or empty"};
  }
  double mse_sum = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    mse_sum += luma_mse(reference[i], received[i]);
  }
  return psnr_from_mse(mse_sum / static_cast<double>(reference.size()));
}

std::vector<std::string> ascii_thumbnail(const Frame& frame, int cols,
                                         int rows) {
  static constexpr char kRamp[] = " .:-=+*#%@";
  static constexpr int kRampSize = 10;
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(rows));
  for (int r = 0; r < rows; ++r) {
    std::string line;
    line.reserve(static_cast<std::size_t>(cols));
    for (int c = 0; c < cols; ++c) {
      // Average the luma cell that maps onto this character.
      const int x0 = c * frame.width() / cols;
      const int x1 = (c + 1) * frame.width() / cols;
      const int y0 = r * frame.height() / rows;
      const int y1 = (r + 1) * frame.height() / rows;
      long sum = 0;
      int count = 0;
      for (int yy = y0; yy < y1; ++yy) {
        for (int xx = x0; xx < x1; ++xx) {
          sum += frame.y(xx, yy);
          ++count;
        }
      }
      const int avg = count > 0 ? static_cast<int>(sum / count) : 0;
      line.push_back(kRamp[avg * kRampSize / 256]);
    }
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace tv::video
