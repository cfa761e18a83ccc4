#include "video/dct.hpp"

#include <cmath>
#include <cstring>
#include <numbers>

namespace tv::video {

namespace {

// Precomputed cosine basis: table[u][x] = c(u) * cos((2x+1) u pi / 16),
// plus its transpose.  Every pass of both transforms is one 8x8 matrix
// product written in independent-accumulator form: the reduction index is
// the *outer* loop and all 8 outputs accumulate in the inner loop, as
// packed-double lanes.  Each output still sums its products in exactly the
// same order as the classic dot-product formulation — bit-identical
// results, pinned by the golden sweeps — without a serial reduction the
// compiler is not allowed to reassociate.
struct Basis {
  double table[8][8];
  double transposed[8][8];  // transposed[x][u] == table[u][x].
  Basis() {
    for (int u = 0; u < 8; ++u) {
      const double cu = u == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int x = 0; x < 8; ++x) {
        table[u][x] = cu * std::cos((2.0 * x + 1.0) * u * std::numbers::pi / 16.0);
        transposed[x][u] = table[u][x];
      }
    }
  }
};

const Basis kBasis;

// Two doubles in one SSE2 register (a GCC/Clang vector extension).  Each
// lane of a packed add or multiply is the scalar IEEE operation, so packed
// and scalar forms give the same bits; written out, because the
// autovectorizer packs the products here but leaves the sums scalar.
typedef double Lanes2 __attribute__((vector_size(16)));

inline Lanes2 load2(const double* p) {
  Lanes2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// out[k][u] = Σ_j a[k][j] * b[j][u], summed in j order: the matrix product
// a·b of two row-major 8x8 matrices, each output row as four lane pairs.
// A column pass (a = basis, b = block) needs no transposes: its products
// are the same, since multiplication commutes exactly, and each output
// still sums them in the same order.
inline void mat8_product(const double* a, const double* b, double* out) {
  for (int k = 0; k < 8; ++k) {
    Lanes2 acc[4] = {};
    const double* row = a + static_cast<std::size_t>(k) * 8;
    for (int j = 0; j < 8; ++j) {
      const Lanes2 s = {row[j], row[j]};
      const double* brow = b + static_cast<std::size_t>(j) * 8;
      for (int h = 0; h < 4; ++h) acc[h] += s * load2(brow + 2 * h);
    }
    std::memcpy(out + static_cast<std::size_t>(k) * 8, acc, sizeof acc);
  }
}

}  // namespace

Block8x8 forward_dct(const Block8x8& spatial) {
  // Separable: rows then columns.  tmp[r][u] = Σ_x s[r][x] * B[u][x].
  Block8x8 tmp{};
  mat8_product(spatial.data(), &kBasis.transposed[0][0], tmp.data());
  // out[v][c] = Σ_y B[v][y] * tmp[y][c].
  Block8x8 out{};
  mat8_product(&kBasis.table[0][0], tmp.data(), out.data());
  return out;
}

Block8x8 inverse_dct(const Block8x8& coefficients) {
  // Columns first (mirrors the forward transform's historical order):
  // tmp[y][c] = Σ_v B[v][y] * C[v][c].
  Block8x8 tmp{};
  mat8_product(&kBasis.transposed[0][0], coefficients.data(), tmp.data());
  // Rows: out[r][x] = Σ_u tmp[r][u] * B[u][x].
  Block8x8 out{};
  mat8_product(tmp.data(), &kBasis.table[0][0], out.data());
  return out;
}

QuantBlock quantize(const Block8x8& coefficients, double qstep) {
  QuantBlock out{};
  for (int i = 0; i < 64; ++i) {
    const double step = i == 0 ? qstep * 0.5 : qstep;
    out[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(
        std::lround(coefficients[static_cast<std::size_t>(i)] / step));
  }
  return out;
}

Block8x8 dequantize(const QuantBlock& levels, double qstep) {
  Block8x8 out{};
  for (int i = 0; i < 64; ++i) {
    const double step = i == 0 ? qstep * 0.5 : qstep;
    out[static_cast<std::size_t>(i)] =
        static_cast<double>(levels[static_cast<std::size_t>(i)]) * step;
  }
  return out;
}

QuantBlock quantize_deadzone(const Block8x8& coefficients, double qstep) {
  QuantBlock out{};
  for (int i = 0; i < 64; ++i) {
    const double c = coefficients[static_cast<std::size_t>(i)];
    // Truncation toward zero: the dead zone spans (-qstep, qstep).
    out[static_cast<std::size_t>(i)] =
        static_cast<std::int16_t>(c / qstep);
  }
  return out;
}

QuantBlock quantize_residual_deadzone(const Block8x8& source,
                                      const Block8x8& prediction,
                                      double qstep) {
  Block8x8 diff{};
  double lanes[8] = {};
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      const auto i = static_cast<std::size_t>(r * 8 + c);
      const double d = source[i] - prediction[i];
      diff[i] = d;
      lanes[c] += d * d;
    }
  }
  double energy = 0.0;
  for (const double lane : lanes) energy += lane;
  // Why a low-energy residual needs no transform.  Each d is an integer in
  // [-255, 255], so every square and sum above is an integer below 2^53:
  // `energy` is exactly Σd², in any summation order.  The DCT is
  // orthonormal, so in exact arithmetic Σc² = Σd² (Parseval) and every
  // |c| <= sqrt(energy).  forward_dct computes each c in two passes of
  // 8-term sums of products with basis values of magnitude <= 0.5 (each
  // within 2 ulp of the exact value); for |d| <= 255 its rounding error is
  // below 1e-10.  So when energy < fl(limit²), with limit = qstep - 1e-6
  // and qstep < 1e6, every computed |c| < limit·(1 + 2^-53) + 1e-10 <
  // qstep - 1e-7, so |c / qstep| rounds below 1 and truncates to 0 in
  // quantize_deadzone.  tests/test_video_dct.cpp checks this against the
  // full transform at the bound.
  const double limit = qstep - 1e-6;
  if (limit > 0.0 && qstep < 1e6 && energy < limit * limit) return {};
  return quantize_deadzone(forward_dct(diff), qstep);
}

Block8x8 dequantize_deadzone(const QuantBlock& levels, double qstep) {
  Block8x8 out{};
  for (int i = 0; i < 64; ++i) {
    const double l = levels[static_cast<std::size_t>(i)];
    if (l == 0.0) {
      out[static_cast<std::size_t>(i)] = 0.0;
    } else {
      const double sign = l > 0.0 ? 1.0 : -1.0;
      out[static_cast<std::size_t>(i)] = (l + 0.5 * sign) * qstep;
    }
  }
  return out;
}

const std::array<int, 64> kZigzag = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

}  // namespace tv::video
