#include "video/codec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "util/thread_pool.hpp"
#include "video/bitstream.hpp"
#include "video/dct.hpp"

namespace tv::video {

namespace {

constexpr std::uint8_t kMagic = 0x54;
constexpr std::uint8_t kTypeI = 0;
constexpr std::uint8_t kTypeP = 1;
constexpr std::uint8_t kModeSkipRun = 0;
constexpr std::uint8_t kModeInter = 1;
constexpr std::uint8_t kModeIntra = 2;

/// Full-pel motion search radius.
constexpr int kSearchRange = 8;
/// Mean per-pixel SAD above which a P-frame macroblock is coded intra
/// instead of inter (new content after cuts / fast motion) — the same
/// refresh mechanism H.264 encoders use.  Fast content therefore remains
/// partially reconstructible from P-frames alone, which is exactly why
/// the paper needs I+20%P encryption for fast-motion video.
constexpr double kIntraRefreshSad = 10.0;

int clampi(int v, int lo, int hi) { return v < lo ? lo : (v > hi ? hi : v); }

// Read an 8x8 block from a plane with coordinate clamping (needed for
// motion-compensated reads that may point outside the picture).
Block8x8 read_block(const std::vector<std::uint8_t>& plane, int w, int h,
                    int x0, int y0) {
  Block8x8 block;
  if (x0 >= 0 && y0 >= 0 && x0 + 8 <= w && y0 + 8 <= h) {
    // Interior: no clamping, so each row is one contiguous read.
    const std::uint8_t* src = plane.data() +
                              static_cast<std::size_t>(y0) *
                                  static_cast<std::size_t>(w) +
                              static_cast<std::size_t>(x0);
    for (int r = 0; r < 8; ++r, src += w) {
      for (int c = 0; c < 8; ++c) {
        block[static_cast<std::size_t>(r * 8 + c)] =
            static_cast<double>(src[c]);
      }
    }
    return block;
  }
  for (int r = 0; r < 8; ++r) {
    const int yy = clampi(y0 + r, 0, h - 1);
    for (int c = 0; c < 8; ++c) {
      const int xx = clampi(x0 + c, 0, w - 1);
      block[static_cast<std::size_t>(r * 8 + c)] = static_cast<double>(
          plane[static_cast<std::size_t>(yy) * static_cast<std::size_t>(w) +
                static_cast<std::size_t>(xx)]);
    }
  }
  return block;
}

// Write prediction + residual into a plane of width w at (x0,y0), clamped
// to [0, 255] and rounded to the nearest byte.
void write_block(std::vector<std::uint8_t>& plane, int w, int x0, int y0,
                 const Block8x8& prediction, const Block8x8& residual) {
  const auto stride = static_cast<std::size_t>(w);
  std::uint8_t* dst = plane.data() + static_cast<std::size_t>(y0) * stride +
                      static_cast<std::size_t>(x0);
  for (int r = 0; r < 8; ++r, dst += stride) {
    for (int c = 0; c < 8; ++c) {
      const auto i = static_cast<std::size_t>(r * 8 + c);
      double v = prediction[i] + residual[i];
      if (v < 0.0) v = 0.0;
      if (v > 255.0) v = 255.0;
      dst[c] = static_cast<std::uint8_t>(v + 0.5);
    }
  }
}

bool all_zero(const QuantBlock& q) {
  for (std::int16_t v : q) {
    if (v != 0) return false;
  }
  return true;
}

// Coefficient coding: varint count of nonzeros, then per coefficient the
// zigzag-position gap (delta-1 from the previous position) and the
// zigzag-signed level.
void code_coefficients(ByteWriter& writer, const QuantBlock& q) {
  int nnz = 0;
  for (int i = 0; i < 64; ++i) {
    if (q[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(i)])] != 0) {
      ++nnz;
    }
  }
  writer.put_varint(static_cast<std::uint64_t>(nnz));
  int prev = -1;
  for (int i = 0; i < 64; ++i) {
    const std::int16_t level =
        q[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(i)])];
    if (level == 0) continue;
    writer.put_varint(static_cast<std::uint64_t>(i - prev - 1));
    writer.put_signed(level);
    prev = i;
  }
}

QuantBlock decode_coefficients(ByteReader& reader) {
  QuantBlock q{};
  const std::uint64_t nnz = reader.get_varint();
  if (nnz > 64) throw BitstreamError{"too many coefficients"};
  int pos = -1;
  for (std::uint64_t i = 0; i < nnz; ++i) {
    // Bound the gap before it reaches an int: a garbled varint must not
    // wrap into a negative position.
    const std::uint64_t gap = reader.get_varint();
    if (gap >= static_cast<std::uint64_t>(63 - pos)) {
      throw BitstreamError{"coefficient position overflow"};
    }
    pos += static_cast<int>(gap) + 1;
    const std::int64_t level = reader.get_signed();
    if (level < -32768 || level > 32767 || level == 0) {
      throw BitstreamError{"bad coefficient level"};
    }
    q[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(pos)])] =
        static_cast<std::int16_t>(level);
  }
  return q;
}

// The six 8x8 blocks of a macroblock: 4 luma + U + V.
struct MbGeometry {
  // Luma block origins.
  int lx[4];
  int ly[4];
  // Chroma block origin.
  int cx;
  int cy;

  // Origin of block b (0-3 luma, 4 U, 5 V) in its plane.
  [[nodiscard]] int x(int b) const { return b < 4 ? lx[b] : cx; }
  [[nodiscard]] int y(int b) const { return b < 4 ? ly[b] : cy; }
};

MbGeometry mb_geometry(int mb_x, int mb_y) {
  MbGeometry g{};
  const int bx = mb_x * 16;
  const int by = mb_y * 16;
  g.lx[0] = bx;     g.ly[0] = by;
  g.lx[1] = bx + 8; g.ly[1] = by;
  g.lx[2] = bx;     g.ly[2] = by + 8;
  g.lx[3] = bx + 8; g.ly[3] = by + 8;
  g.cx = mb_x * 8;
  g.cy = mb_y * 8;
  return g;
}

// Block `b` of a macroblock (0-3 luma, 4 U, 5 V), displaced by (dx, dy)
// in that block's plane.
Block8x8 read_mb_block(const Frame& f, const MbGeometry& g, int b, int dx,
                       int dy) {
  if (b < 4) {
    return read_block(f.y_plane(), f.width(), f.height(), g.x(b) + dx,
                      g.y(b) + dy);
  }
  return read_block(b == 4 ? f.u_plane() : f.v_plane(), f.chroma_width(),
                     f.chroma_height(), g.x(b) + dx, g.y(b) + dy);
}

struct MotionVector {
  int dx = 0;
  int dy = 0;
  int sad = 0;  ///< sad_16x16 at (dx, dy), without the zero-vector bias.
};

// Three-step search around (0,0); returns the best full-pel vector.
MotionVector motion_search(const Frame& cur, const Frame& ref, int bx, int by,
                           int range) {
  constexpr int kZeroBias = 128;
  MotionVector best;
  int best_cost = sad_16x16(cur, ref, bx, by, 0, 0) - kZeroBias;
  for (int step = std::max(1, range / 2); step >= 1; step /= 2) {
    const int cx = best.dx;
    const int cy = best.dy;
    for (int sy = -1; sy <= 1; ++sy) {
      for (int sx = -1; sx <= 1; ++sx) {
        if (sx == 0 && sy == 0) continue;
        const int dx = clampi(cx + sx * step, -range, range);
        const int dy = clampi(cy + sy * step, -range, range);
        const int cost = sad_16x16(cur, ref, bx, by, dx, dy);
        if (cost < best_cost) {
          best_cost = cost;
          best.dx = dx;
          best.dy = dy;
        }
      }
    }
  }
  // A later (0,0) candidate costs its unbiased SAD, which never beats the
  // biased start, so a (0,0) result always carries the bias.
  best.sad = best.dx == 0 && best.dy == 0 ? best_cost + kZeroBias : best_cost;
  return best;
}

struct PlaneRef {
  std::vector<std::uint8_t>* plane;
  int w;
  int h;
};

// The plane each block of a macroblock (0-3 luma, 4 U, 5 V) is written to.
using MbPlanes = std::array<PlaneRef, 6>;

MbPlanes mb_planes(Frame& f) {
  const PlaneRef y{&f.y_plane(), f.width(), f.height()};
  const PlaneRef u{&f.u_plane(), f.chroma_width(), f.chroma_height()};
  const PlaneRef v{&f.v_plane(), f.chroma_width(), f.chroma_height()};
  return {y, y, y, y, u, v};
}

// The plane block `b` of a macroblock (0-3 luma, 4 U, 5 V) lies in.
const std::vector<std::uint8_t>& mb_plane(const Frame& f, int b) {
  return b < 4 ? f.y_plane() : (b == 4 ? f.u_plane() : f.v_plane());
}

// Write a block whose levels are all zero: a byte copy of its prediction,
// the block at (x0 + dx, y0 + dy) of `source` (a plane of the same size as
// `recon`'s), read with read_block's clamping.  It equals reconstruct_block
// bit for bit: a byte converts to a double exactly, the zero residual adds
// nothing, and write_block rounds such an integer back to itself.
void copy_block(PlaneRef recon, const std::vector<std::uint8_t>& source,
                int x0, int y0, int dx, int dy) {
  const auto w = static_cast<std::size_t>(recon.w);
  std::uint8_t* dst = recon.plane->data() + static_cast<std::size_t>(y0) * w +
                      static_cast<std::size_t>(x0);
  const int sx = x0 + dx;
  const int sy = y0 + dy;
  if (sx >= 0 && sy >= 0 && sx + 8 <= recon.w && sy + 8 <= recon.h) {
    const std::uint8_t* src = source.data() +
                              static_cast<std::size_t>(sy) * w +
                              static_cast<std::size_t>(sx);
    for (int r = 0; r < 8; ++r, src += w, dst += w) std::memcpy(dst, src, 8);
    return;
  }
  for (int r = 0; r < 8; ++r, dst += w) {
    const std::uint8_t* src =
        source.data() +
        static_cast<std::size_t>(clampi(sy + r, 0, recon.h - 1)) * w;
    for (int c = 0; c < 8; ++c) {
      dst[c] = src[clampi(sx + c, 0, recon.w - 1)];
    }
  }
}

// Reconstruct one block from its prediction and quantized levels into
// `recon` at (x0,y0), at the cost of the levels' extent: dequantization
// and both inverse-transform passes cover only the top-left square that
// holds every nonzero level, bit-identical to the full transform (see
// inverse_dct).  All-zero levels have extent 0, whose residual is +0.0
// everywhere, and p + 0.0 == p: the block is its prediction.
void reconstruct_block(PlaneRef recon, int x0, int y0,
                       const Block8x8& prediction, const QuantBlock& levels,
                       double qstep, bool deadzone) {
  const int n = level_extent(levels);
  const Block8x8 residual =
      inverse_dct(deadzone ? dequantize_deadzone(levels, qstep, n)
                           : dequantize(levels, qstep, n),
                  n);
  write_block(*recon.plane, recon.w, x0, y0, prediction, residual);
}

// Intra levels of `source` against `prediction` (inter residuals use
// quantize_residual_deadzone).
QuantBlock quantize_difference(const Block8x8& source,
                               const Block8x8& prediction, double qstep) {
  Block8x8 diff;
  for (int i = 0; i < 64; ++i) {
    diff[static_cast<std::size_t>(i)] = source[static_cast<std::size_t>(i)] -
                                        prediction[static_cast<std::size_t>(i)];
  }
  return quantize(forward_dct(diff), qstep);
}

}  // namespace

int sad_16x16(const Frame& cur, const Frame& ref, int bx, int by, int dx,
              int dy) {
  const int x0 = bx + dx;
  const int y0 = by + dy;
  const std::size_t cur_w = static_cast<std::size_t>(cur.width());
  const std::size_t ref_w = static_cast<std::size_t>(ref.width());
  const std::uint8_t* a = cur.y_plane().data() +
                          static_cast<std::size_t>(by) * cur_w +
                          static_cast<std::size_t>(bx);
  int acc = 0;
  if (x0 >= 0 && y0 >= 0 && x0 + 16 <= ref.width() &&
      y0 + 16 <= ref.height()) {
    // Interior: no clamping, so each row is one vectorizable SAD.
    const std::uint8_t* b = ref.y_plane().data() +
                            static_cast<std::size_t>(y0) * ref_w +
                            static_cast<std::size_t>(x0);
    for (int r = 0; r < 16; ++r, a += cur_w, b += ref_w) {
      for (int c = 0; c < 16; ++c) {
        acc += std::abs(static_cast<int>(a[c]) - static_cast<int>(b[c]));
      }
    }
    return acc;
  }
  for (int r = 0; r < 16; ++r, a += cur_w) {
    const int ry = clampi(y0 + r, 0, ref.height() - 1);
    for (int c = 0; c < 16; ++c) {
      const int rx = clampi(x0 + c, 0, ref.width() - 1);
      acc += std::abs(static_cast<int>(a[c]) -
                      static_cast<int>(ref.y(rx, ry)));
    }
  }
  return acc;
}

std::size_t EncodedStream::total_bytes() const {
  std::size_t total = 0;
  for (const auto& f : frames) total += f.data.size();
  return total;
}

double EncodedStream::mean_i_bytes() const {
  std::size_t total = 0;
  std::size_t count = 0;
  for (const auto& f : frames) {
    if (f.is_i) {
      total += f.data.size();
      ++count;
    }
  }
  return count > 0 ? static_cast<double>(total) / static_cast<double>(count)
                   : 0.0;
}

double EncodedStream::mean_p_bytes() const {
  std::size_t total = 0;
  std::size_t count = 0;
  for (const auto& f : frames) {
    if (!f.is_i) {
      total += f.data.size();
      ++count;
    }
  }
  return count > 0 ? static_cast<double>(total) / static_cast<double>(count)
                   : 0.0;
}

ReceivedFrameData ReceivedFrameData::lost(std::size_t size) {
  ReceivedFrameData r;
  r.data.assign(size, 0);
  r.byte_ok.assign(size, false);
  return r;
}

ReceivedFrameData ReceivedFrameData::intact(std::vector<std::uint8_t> bytes) {
  ReceivedFrameData r;
  r.byte_ok.assign(bytes.size(), true);
  r.data = std::move(bytes);
  return r;
}

bool ReceivedFrameData::range_ok(std::size_t begin, std::size_t end) const {
  if (end > byte_ok.size()) return false;
  if (begin >= end) return true;
  const auto last = byte_ok.begin() + static_cast<std::ptrdiff_t>(end);
  return std::find(byte_ok.begin() + static_cast<std::ptrdiff_t>(begin), last,
                   false) == last;
}

Encoder::Encoder(CodecConfig config) : config_(config) {
  if (config_.gop_size < 1) throw std::invalid_argument{"gop_size < 1"};
  if (config_.i_qstep <= 0.0 || config_.p_qstep <= 0.0) {
    throw std::invalid_argument{"quantizer steps must be positive"};
  }
}

namespace {

// Code one macroblock intra: flat mid-gray prediction, all six blocks.
void code_intra_mb(ByteWriter& row, const Frame& source, const MbGeometry& g,
                   const MbPlanes& out, double qstep) {
  Block8x8 flat{};
  flat.fill(128.0);
  for (int b = 0; b < 6; ++b) {
    const QuantBlock q =
        quantize_difference(read_mb_block(source, g, b, 0, 0), flat, qstep);
    code_coefficients(row, q);
    reconstruct_block(out[b], g.x(b), g.y(b), flat, q, qstep, false);
  }
}

// Encode macroblock row `mb_y` of `source` as one independent slice.  It
// predicts only from `recon` (the previous reconstruction) and writes only
// row `mb_y`'s blocks of `next_recon`, so the rows of a frame may run
// concurrently.
std::vector<std::uint8_t> encode_row(const CodecConfig& config,
                                     const Frame& source, const Frame& recon,
                                     Frame& next_recon, bool is_i, int mb_y) {
  const int mb_cols = source.width() / 16;
  const double qstep = is_i ? config.i_qstep : config.p_qstep;
  const MbPlanes out = mb_planes(next_recon);

  ByteWriter row;
  int pending_skips = 0;
  auto flush_skips = [&]() {
    // Skip runs are coded as mode byte + varint(extra skips); patching
    // varints in place is fiddly, so buffer the run and emit on flush.
    if (pending_skips == 0) return;
    row.put_u8(kModeSkipRun);
    row.put_varint(static_cast<std::uint64_t>(pending_skips - 1));
    pending_skips = 0;
  };

  for (int mb_x = 0; mb_x < mb_cols; ++mb_x) {
    const MbGeometry g = mb_geometry(mb_x, mb_y);

    if (is_i) {
      code_intra_mb(row, source, g, out, qstep);
      continue;
    }

    // Inter MB: try the zero-motion skip first — if the zero-mv residual
    // quantizes to nothing everywhere, the MB is a skip and no search is
    // needed (this is what makes static content cheap).  A skip copies
    // its zero-motion prediction, since zero levels reconstruct to it.
    Block8x8 pred[6] = {};
    bool zero_skippable = true;
    for (int b = 0; b < 6 && zero_skippable; ++b) {
      pred[b] = read_mb_block(recon, g, b, 0, 0);
      zero_skippable = all_zero(quantize_residual_deadzone(
          read_mb_block(source, g, b, 0, 0), pred[b], qstep));
    }
    int dx = 0;
    int dy = 0;
    int sad = 0;
    if (zero_skippable) {
      sad = sad_16x16(source, recon, mb_x * 16, mb_y * 16, 0, 0);
    } else {
      const MotionVector best =
          motion_search(source, recon, mb_x * 16, mb_y * 16, kSearchRange);
      dx = best.dx;
      dy = best.dy;
      sad = best.sad;
    }

    // Intra refresh: when even the best motion-compensated prediction is
    // poor (new content), code the MB intra like an I-frame MB.
    if (sad > kIntraRefreshSad * 256.0) {
      flush_skips();
      row.put_u8(kModeIntra);
      code_intra_mb(row, source, g, out, qstep);
      continue;
    }

    if (zero_skippable) {
      ++pending_skips;
      for (int b = 0; b < 6; ++b) {
        copy_block(out[b], mb_plane(recon, b), g.x(b), g.y(b), 0, 0);
      }
      continue;
    }

    // Coded inter: some zero-motion level was nonzero, so even a (0,0)
    // vector is not a skip.  Chroma moves by half the luma vector.
    QuantBlock q[6] = {};
    std::uint8_t cbp = 0;
    for (int b = 0; b < 6; ++b) {
      pred[b] = b < 4 ? read_mb_block(recon, g, b, dx, dy)
                      : read_mb_block(recon, g, b, dx / 2, dy / 2);
      q[b] = quantize_residual_deadzone(read_mb_block(source, g, b, 0, 0),
                                        pred[b], qstep);
      if (!all_zero(q[b])) cbp |= static_cast<std::uint8_t>(1U << b);
    }
    flush_skips();
    row.put_u8(kModeInter);
    row.put_signed(dx);
    row.put_signed(dy);
    row.put_u8(cbp);
    for (int b = 0; b < 6; ++b) {
      if (cbp & (1U << b)) {
        code_coefficients(row, q[b]);
        reconstruct_block(out[b], g.x(b), g.y(b), pred[b], q[b], qstep, true);
      } else {
        copy_block(out[b], mb_plane(recon, b), g.x(b), g.y(b),
                   b < 4 ? dx : dx / 2, b < 4 ? dy : dy / 2);
      }
    }
  }
  flush_skips();
  return row.take();
}

// Decode one intra macroblock (code_intra_mb's inverse).
void decode_intra_mb(ByteReader& row, const MbGeometry& g, const MbPlanes& out,
                     double qstep) {
  Block8x8 flat{};
  flat.fill(128.0);
  for (int b = 0; b < 6; ++b) {
    const QuantBlock q = decode_coefficients(row);
    reconstruct_block(out[b], g.x(b), g.y(b), flat, q, qstep, false);
  }
}

}  // namespace

EncodedStream Encoder::encode(const FrameSequence& clip,
                              util::ThreadPool* pool,
                              std::vector<double>* recon_mse) const {
  if (clip.empty()) throw std::invalid_argument{"encode: empty clip"};
  const int width = clip.front().width();
  const int height = clip.front().height();
  for (const Frame& f : clip) {
    if (f.width() != width || f.height() != height) {
      throw std::invalid_argument{"encode: frame dimensions differ"};
    }
  }

  EncodedStream stream;
  stream.config = config_;
  stream.width = width;
  stream.height = height;
  const std::size_t n = clip.size();
  stream.frames.resize(n);
  if (recon_mse != nullptr) recon_mse->assign(n, 0.0);

  // Every GOP opens on an intra frame, which reads no reference, so each
  // GOP is an independent chain of reconstructions.  Chains run side by
  // side on the pool and write only their own frames' slots, so the
  // stream is the same however they were scheduled.
  const auto gop = static_cast<std::size_t>(config_.gop_size);
  const std::size_t chains = (n + gop - 1) / gop;
  const int mb_rows = height / 16;
  util::parallel_for(pool, chains, [&](std::size_t chain) {
    Frame recon;  // encoder-side decoded reference; the I-frame reads none.
    std::vector<std::vector<std::uint8_t>> slices(
        static_cast<std::size_t>(mb_rows));
    const std::size_t first = chain * gop;
    for (std::size_t fi = first; fi < std::min(n, first + gop); ++fi) {
      const Frame& source = clip[fi];
      const bool is_i = fi == first;
      Frame next_recon(width, height);

      // Every macroblock row is an independent slice; rows are joined in
      // row order below, so the frame is the same however they were
      // scheduled.
      util::parallel_for(pool, slices.size(), [&](std::size_t mb_y) {
        slices[mb_y] = encode_row(config_, source, recon, next_recon, is_i,
                                  static_cast<int>(mb_y));
      });

      // Assemble the frame: header (magic, type, index, dims, slice
      // table) followed by the slices.
      ByteWriter frame;
      frame.put_u8(kMagic);
      frame.put_u8(is_i ? kTypeI : kTypeP);
      frame.put_u32(static_cast<std::uint32_t>(fi));
      frame.put_u16(static_cast<std::uint16_t>(width));
      frame.put_u16(static_cast<std::uint16_t>(height));
      frame.put_u16(static_cast<std::uint16_t>(mb_rows));
      for (const auto& s : slices) {
        frame.put_varint(s.size());
      }
      for (const auto& s : slices) {
        for (std::uint8_t b : s) frame.put_u8(b);
      }

      EncodedFrame& out = stream.frames[fi];
      out.index = static_cast<int>(fi);
      out.is_i = is_i;
      out.data = frame.take();
      if (recon_mse != nullptr) {
        (*recon_mse)[fi] = luma_mse(source, next_recon);
      }
      recon = std::move(next_recon);
    }
  });
  return stream;
}

std::optional<FrameHeader> read_frame_header(
    int width, int height, const ReceivedFrameData& received) {
  FrameHeader header;
  try {
    ByteReader reader{received.data};
    auto checked = [&](std::size_t end) {
      if (!received.range_ok(0, end)) throw BitstreamError{"header bytes missing"};
    };
    checked(12);
    if (reader.get_u8() != kMagic) throw BitstreamError{"bad magic"};
    const std::uint8_t type = reader.get_u8();
    if (type != kTypeI && type != kTypeP) throw BitstreamError{"bad type"};
    header.is_i = type == kTypeI;
    (void)reader.get_u32();  // frame index (informational).
    const int header_width = reader.get_u16();
    const int header_height = reader.get_u16();
    const int mb_rows = reader.get_u16();
    // Only the stream's own size is accepted, so a header cannot make the
    // decoder allocate a frame (or read a slice table) of its choosing.
    if (header_width != width || header_height != height ||
        mb_rows != height / 16) {
      throw BitstreamError{"bad dimensions"};
    }
    std::vector<std::size_t> sizes;
    sizes.reserve(static_cast<std::size_t>(mb_rows));
    for (int r = 0; r < mb_rows; ++r) {
      checked(reader.position() + 1);
      // Varint may span several bytes; validate byte-by-byte.
      const std::size_t before = reader.position();
      checked(before + 5 <= received.data.size() ? before + 5
                                                 : received.data.size());
      sizes.push_back(reader.get_varint());
    }
    std::size_t offset = reader.position();
    for (const std::size_t size : sizes) {
      // Checked per slice, so a garbled size cannot wrap the offset.
      if (size > received.data.size() - offset) {
        throw BitstreamError{"slice overflow"};
      }
      header.slice_begin.push_back(offset);
      offset += size;
      header.slice_end.push_back(offset);
    }
  } catch (const BitstreamError&) {
    return std::nullopt;
  }
  return header;
}

Decoder::Decoder(CodecConfig config) : config_(config) {}

DecodeResult Decoder::decode_frame(int width, int height,
                                   const ReceivedFrameData& received,
                                   const Frame* reference) const {
  return decode_frame(width, height, received, reference,
                      read_frame_header(width, height, received));
}

DecodeResult Decoder::decode_frame(
    int width, int height, const ReceivedFrameData& received,
    const Frame* reference, const std::optional<FrameHeader>& header) const {
  if (reference != nullptr &&
      (reference->width() != width || reference->height() != height)) {
    throw std::invalid_argument{"decode_frame: reference size differs"};
  }
  DecodeResult result;
  result.header_ok = header.has_value();

  // Concealment baseline: repeat the reference, or emit gray.  A bad
  // header conceals the whole frame; otherwise every macroblock that does
  // not decode keeps it.
  if (reference != nullptr) {
    result.frame = *reference;
  } else {
    result.frame = Frame(width, height);
    result.frame.fill(128, 128, 128);
  }
  if (!result.header_ok) return result;

  const int mb_cols = width / 16;
  const int mb_rows = height / 16;  // the header's, checked on reading.
  result.total_macroblocks = mb_cols * mb_rows;
  result.is_i = header->is_i;

  // Inter macroblocks predict from the reference, or without one from a
  // gray frame like the baseline.
  Frame gray;
  if (reference == nullptr && !header->is_i) gray = result.frame;
  const Frame& prediction = reference != nullptr ? *reference : gray;

  const MbPlanes out = mb_planes(result.frame);
  const double qstep = header->is_i ? config_.i_qstep : config_.p_qstep;

  for (int mb_y = 0; mb_y < mb_rows; ++mb_y) {
    const auto slice = static_cast<std::size_t>(mb_y);
    const std::size_t begin = header->slice_begin[slice];
    const std::size_t end = header->slice_end[slice];
    if (!received.range_ok(begin, end)) continue;  // concealed row.
    try {
      ByteReader row{std::span<const std::uint8_t>(received.data)
                         .subspan(begin, end - begin)};
      int skip_remaining = 0;
      for (int mb_x = 0; mb_x < mb_cols; ++mb_x) {
        const MbGeometry g = mb_geometry(mb_x, mb_y);
        if (header->is_i) {
          decode_intra_mb(row, g, out, qstep);
          ++result.decoded_macroblocks;
          continue;
        }

        if (skip_remaining > 0) {
          --skip_remaining;
          ++result.decoded_macroblocks;
          continue;  // the baseline already holds the prediction.
        }
        const std::uint8_t mode = row.get_u8();
        if (mode == kModeSkipRun) {
          skip_remaining = static_cast<int>(row.get_varint());
          ++result.decoded_macroblocks;
          continue;
        }
        if (mode == kModeIntra) {
          decode_intra_mb(row, g, out, qstep);
          ++result.decoded_macroblocks;
          continue;
        }
        if (mode != kModeInter) throw BitstreamError{"bad MB mode"};
        const std::int64_t mv_x = row.get_signed();
        const std::int64_t mv_y = row.get_signed();
        if (mv_x < -64 || mv_x > 64 || mv_y < -64 || mv_y > 64) {
          throw BitstreamError{"bad motion vector"};
        }
        const int dx = static_cast<int>(mv_x);
        const int dy = static_cast<int>(mv_y);
        const std::uint8_t cbp = row.get_u8();
        for (int b = 0; b < 6; ++b) {
          // Chroma moves by half the luma vector.
          const int bdx = b < 4 ? dx : dx / 2;
          const int bdy = b < 4 ? dy : dy / 2;
          QuantBlock q{};
          if (cbp & (1U << b)) q = decode_coefficients(row);
          if (!all_zero(q)) {
            reconstruct_block(out[b], g.x(b), g.y(b),
                              read_mb_block(prediction, g, b, bdx, bdy), q,
                              qstep, true);
          } else if (bdx != 0 || bdy != 0) {
            copy_block(out[b], mb_plane(prediction, b), g.x(b), g.y(b), bdx,
                       bdy);
          }
          // A zero-level block at zero displacement is the baseline's.
        }
        ++result.decoded_macroblocks;
      }
    } catch (const BitstreamError&) {
      // Malformed slice tail: keep whatever was decoded, rest stays
      // concealed.
    }
  }
  return result;
}

FrameSequence Decoder::decode_stream(
    int width, int height,
    const std::vector<ReceivedFrameData>& frames) const {
  FrameSequence out;
  out.reserve(frames.size());
  // Each frame decodes against the previous output in place; the
  // decoder's concealment baseline is the only copy of it.
  for (const auto& received : frames) {
    DecodeResult r = decode_frame(width, height, received,
                                  out.empty() ? nullptr : &out.back());
    out.push_back(std::move(r.frame));
  }
  return out;
}

}  // namespace tv::video
