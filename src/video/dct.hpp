// 8x8 block transforms: floating-point DCT-II/III, uniform quantization and
// zigzag scan — the signal-processing core of the intra/inter codec.
#pragma once

#include <array>
#include <cstdint>

namespace tv::video {

/// An 8x8 block of spatial samples or transform coefficients, row-major.
using Block8x8 = std::array<double, 64>;
/// Quantized coefficient block.
using QuantBlock = std::array<std::int16_t, 64>;

/// Forward 8x8 DCT-II (orthonormal).
[[nodiscard]] Block8x8 forward_dct(const Block8x8& spatial);

/// Inverse 8x8 DCT (DCT-III), the exact inverse of forward_dct.  Given an
/// `extent` n such that every coefficient outside the top-left n x n
/// square is zero, it gives the same bits at the cost of that square:
/// both passes sum only over its rows and columns.  Extent 0 is the
/// all-zero block; any extent outside [0, 8] runs the full transform.
[[nodiscard]] Block8x8 inverse_dct(const Block8x8& coefficients,
                                   int extent = 8);

/// Side n of the smallest n x n top-left square that holds every nonzero
/// level: 0 for an all-zero block, 8 when a level lies in the last row or
/// column.
[[nodiscard]] int level_extent(const QuantBlock& levels);

/// Uniform mid-tread quantizer.  The DC coefficient uses qstep/2 so flat
/// areas keep their level, mimicking codec practice.
[[nodiscard]] QuantBlock quantize(const Block8x8& coefficients, double qstep);

/// Reconstruction levels for `quantize`.  Only the top-left
/// extent x extent square is read (the whole block for an extent outside
/// [0, 8]); the rest of the block is zero, so for extent >=
/// level_extent(levels) and a positive qstep the block equals the full
/// dequantization bit for bit.
[[nodiscard]] Block8x8 dequantize(const QuantBlock& levels, double qstep,
                                  int extent = 8);

/// Dead-zone quantizer for inter (residual) blocks: coefficients with
/// |c| < qstep map to zero, so quantization noise left by the reference
/// frame (bounded by ~qstep/2) cannot oscillate across the coding
/// threshold and re-code static macroblocks every frame.
[[nodiscard]] QuantBlock quantize_deadzone(const Block8x8& coefficients,
                                           double qstep);

/// The dead-zone levels of an inter residual, quantize_deadzone(
/// forward_dct(source - prediction), qstep) bit for bit, for blocks of
/// 8-bit samples (integers in [0, 255]).  The transform is skipped when the
/// residual's energy proves every level is zero.
[[nodiscard]] QuantBlock quantize_residual_deadzone(const Block8x8& source,
                                                    const Block8x8& prediction,
                                                    double qstep);

/// Reconstruction for `quantize_deadzone` (bin centers), read over the
/// top-left extent x extent square like `dequantize`.
[[nodiscard]] Block8x8 dequantize_deadzone(const QuantBlock& levels,
                                           double qstep, int extent = 8);

/// JPEG/H.26x zigzag scan order: kZigzag[i] is the row-major index of the
/// i-th coefficient in scan order.
extern const std::array<int, 64> kZigzag;

}  // namespace tv::video
