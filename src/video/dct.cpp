#include "video/dct.hpp"

#include <cmath>
#include <cstring>
#include <numbers>
#include <type_traits>

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

// out[k][u] = Σ_{j<K} a[k][j] * b[j][u], summed in j order: the matrix
// product a·b of two row-major 8x8 matrices cut to reduction length K,
// each output row as P lane pairs (columns 0 .. 2P-1; the rest of `out`
// is not written).  K = 8, P = 4 is the full product.  A column pass
// (a = basis, b = block) needs no transposes: its products are the same,
// since multiplication commutes exactly, and each output still sums them
// in the same order.  K and P are constants, so every case is fully
// unrolled (the same loop with a run-time K was 7-12% slower over the
// decoder's mix of extents).
template <int K, int P>
inline void mat8_product(const double* a, const double* b, double* out) {
  for (int k = 0; k < 8; ++k) {
    Lanes2 acc[P] = {};
    const double* row = a + static_cast<std::size_t>(k) * 8;
    for (int j = 0; j < K; ++j) {
      const Lanes2 s = {row[j], row[j]};
      const double* brow = b + static_cast<std::size_t>(j) * 8;
      for (int h = 0; h < P; ++h) acc[h] += s * load2(brow + 2 * h);
    }
    std::memcpy(out + static_cast<std::size_t>(k) * 8, acc, sizeof acc);
  }
}

// Why the inverse transform may stop at the coefficients' extent n (the
// top-left n x n square outside which every coefficient is zero) without
// changing a bit.  Every output of mat8_product is a sum that starts at
// +0.0 and adds its products in j order.  In round-to-nearest, x + y is
// -0.0 only when x and y both are (an exact cancellation gives +0.0), so
// a sum that starts at +0.0 is never -0.0, and for every s that is not
// -0.0, s + (+0.0) == s + (-0.0) == s.  A product with a zero coefficient
// (basis values and coefficients are finite) is a zero of some sign, so
// leaving it out leaves every partial sum as it was, signed zeros
// included.  The column pass tmp[y][c] = Σ_v B[v][y] * C[v][c] therefore
// needs only v < n, and its columns c >= n hold sums of zero products
// alone, +0.0; so the row pass out[r][x] = Σ_u tmp[r][u] * B[u][x] needs
// only u < n, and those columns of tmp need not be computed at all.
template <int N>
Block8x8 inverse_dct_bounded(const Block8x8& coefficients) {
  if constexpr (N == 0) {
    return {};  // sums of zero products alone: +0.0 everywhere.
  } else {
    // Columns first (mirrors the forward transform's historical order):
    // tmp[y][c] = Σ_v B[v][y] * C[v][c], for the lane pairs holding c < N.
    Block8x8 tmp;
    mat8_product<N, (N + 1) / 2>(&kBasis.transposed[0][0],
                                 coefficients.data(), tmp.data());
    // Rows: out[r][x] = Σ_u tmp[r][u] * B[u][x].
    Block8x8 out;
    mat8_product<N, 4>(tmp.data(), &kBasis.table[0][0], out.data());
    return out;
  }
}

// f(std::integral_constant<int, n>{}) for the square side n that an
// `extent` argument names: itself within [0, 8], the whole block
// otherwise.  Each side is its own fully unrolled instance of f.
template <typename F>
Block8x8 with_extent(int extent, F&& f) {
  using std::integral_constant;
  switch (extent) {
    case 0: return f(integral_constant<int, 0>{});
    case 1: return f(integral_constant<int, 1>{});
    case 2: return f(integral_constant<int, 2>{});
    case 3: return f(integral_constant<int, 3>{});
    case 4: return f(integral_constant<int, 4>{});
    case 5: return f(integral_constant<int, 5>{});
    case 6: return f(integral_constant<int, 6>{});
    case 7: return f(integral_constant<int, 7>{});
    default: return f(integral_constant<int, 8>{});
  }
}

// The block whose top-left N x N square holds value(level, index) of each
// level there (index row-major), zeros elsewhere.
template <int N, typename Value>
Block8x8 dequantize_square(const QuantBlock& levels, Value value) {
  Block8x8 out;
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      const auto i = static_cast<std::size_t>(r * 8 + c);
      out[i] = r < N && c < N ? value(levels[i], i) : 0.0;
    }
  }
  return out;
}

}  // namespace

Block8x8 forward_dct(const Block8x8& spatial) {
  // Separable: rows then columns.  tmp[r][u] = Σ_x s[r][x] * B[u][x].
  Block8x8 tmp;
  mat8_product<8, 4>(spatial.data(), &kBasis.transposed[0][0], tmp.data());
  // out[v][c] = Σ_y B[v][y] * tmp[y][c].
  Block8x8 out;
  mat8_product<8, 4>(&kBasis.table[0][0], tmp.data(), out.data());
  return out;
}

Block8x8 inverse_dct(const Block8x8& coefficients, int extent) {
  return with_extent(extent, [&](auto n) {
    return inverse_dct_bounded<n()>(coefficients);
  });
}

int level_extent(const QuantBlock& levels) {
  // Each int16 row as two 64-bit words: the last nonzero row, and the OR
  // of all rows, which holds the columns in use.
  int extent = 0;
  std::uint64_t any[2] = {};
  for (int r = 0; r < 8; ++r) {
    std::uint64_t row[2];
    std::memcpy(row, levels.data() + static_cast<std::size_t>(r) * 8,
                sizeof row);
    if ((row[0] | row[1]) != 0) extent = r + 1;
    any[0] |= row[0];
    any[1] |= row[1];
  }
  std::uint16_t columns[8];
  std::memcpy(columns, any, sizeof columns);
  for (int c = 7; c >= extent; --c) {
    if (columns[c] != 0) return c + 1;
  }
  return extent;
}

QuantBlock quantize(const Block8x8& coefficients, double qstep) {
  QuantBlock out;
  for (int i = 0; i < 64; ++i) {
    const double step = i == 0 ? qstep * 0.5 : qstep;
    out[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(
        std::lround(coefficients[static_cast<std::size_t>(i)] / step));
  }
  return out;
}

Block8x8 dequantize(const QuantBlock& levels, double qstep, int extent) {
  return with_extent(extent, [&](auto n) {
    return dequantize_square<n()>(levels, [qstep](std::int16_t l,
                                                  std::size_t i) {
      const double step = i == 0 ? qstep * 0.5 : qstep;
      return static_cast<double>(l) * step;
    });
  });
}

QuantBlock quantize_deadzone(const Block8x8& coefficients, double qstep) {
  QuantBlock out;
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
  Block8x8 diff;
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

Block8x8 dequantize_deadzone(const QuantBlock& levels, double qstep,
                             int extent) {
  return with_extent(extent, [&](auto n) {
    return dequantize_square<n()>(levels, [qstep](std::int16_t l,
                                                  std::size_t) {
      // The level moved 0.5 away from zero, with no branch on its sign (a
      // coin toss); a zero level gives (0 + 0.5 * 0) * qstep = +0.0.
      const int sign = (l > 0) - (l < 0);
      return (static_cast<double>(l) + 0.5 * sign) * qstep;
    });
  });
}

const std::array<int, 64> kZigzag = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

}  // namespace tv::video
