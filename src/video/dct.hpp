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

/// Inverse 8x8 DCT (DCT-III), the exact inverse of forward_dct.
[[nodiscard]] Block8x8 inverse_dct(const Block8x8& coefficients);

/// Uniform mid-tread quantizer.  The DC coefficient uses qstep/2 so flat
/// areas keep their level, mimicking codec practice.
[[nodiscard]] QuantBlock quantize(const Block8x8& coefficients, double qstep);

/// Reconstruction levels for `quantize`.
[[nodiscard]] Block8x8 dequantize(const QuantBlock& levels, double qstep);

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

/// Reconstruction for `quantize_deadzone` (bin centers).
[[nodiscard]] Block8x8 dequantize_deadzone(const QuantBlock& levels,
                                           double qstep);

/// JPEG/H.26x zigzag scan order: kZigzag[i] is the row-major index of the
/// i-th coefficient in scan order.
extern const std::array<int, 64> kZigzag;

}  // namespace tv::video
