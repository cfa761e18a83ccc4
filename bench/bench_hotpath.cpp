// Hot-path micro-suite: the perf trajectory of the batched cipher API,
// the AES-NI backend, the vectorized DCT, and the end-to-end transfer
// pipeline — the numbers behind BENCH_hotpath.json (docs/benchmarks.md).
//
// Unlike the figure benches this one measures *host* performance, so the
// output is machine-specific by design: the committed BENCH_hotpath.json
// is a baseline record, and run_benches.sh --json regenerates it so the
// trajectory can be compared across commits on the same machine.
//
// Three cipher paths are timed per algorithm:
//   block  — one virtual encrypt_block() call per block (the old API),
//   batch  — one virtual encrypt_blocks() call per buffer (the new API),
//   aes-ni — the hardware backend through the same batch call (AES only).
// plus the OFB stream path each algorithm actually runs per segment.
// Cycles/byte derive from the calibrated TSC; on hosts without a usable
// cycle counter those fields are null and MB/s stands alone.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "crypto/aes_ni.hpp"
#include "crypto/ofb.hpp"
#include "crypto/suite.hpp"
#include "net/packetizer.hpp"
#include "util/cycle_clock.hpp"
#include "video/dct.hpp"
#include "util/arena.hpp"

namespace {

/// Process-wide allocation counter behind the v2 `allocations_per_packet`
/// field.  The shim routes through std::malloc, so it composes with
/// sanitizer builds; only deltas around the timed region are read.
std::atomic<std::uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using tv::crypto::Algorithm;
using tv::crypto::CipherBackend;
using clock_type = std::chrono::steady_clock;

/// Defeats dead-code elimination without a memory barrier per iteration.
volatile std::uint8_t g_sink8 = 0;
volatile double g_sinkd = 0.0;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// Best-of-N wall time of `body` (one untimed warm-up pass first).
template <typename F>
double best_seconds(F&& body, int reps) {
  body();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock_type::now();
    body();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

/// One measured throughput point.
struct Point {
  std::string algorithm;
  std::string backend;
  std::string path;  ///< "block", "batch", or "ofb".
  double mb_s = 0.0;
  double cycles_per_byte = 0.0;  ///< 0 when the cycle clock is unavailable.
  double seconds = 0.0;          ///< best-of wall time (speedup ratios).
};

Algorithm cipher_algorithm(const tv::crypto::BlockCipher& cipher);

Point measure_point(const tv::crypto::BlockCipher& cipher,
                    std::string_view backend, std::string_view path,
                    std::size_t bytes, int reps) {
  const std::size_t block = cipher.block_size();
  const std::size_t n = bytes / block;
  std::vector<std::uint8_t> in(n * block, static_cast<std::uint8_t>(0xa5));
  std::vector<std::uint8_t> out(in.size());
  std::vector<std::uint8_t> iv(block, static_cast<std::uint8_t>(0x3c));
  tv::crypto::OfbStream stream{cipher};

  double seconds = 0.0;
  if (path == "block") {
    seconds = best_seconds(
        [&] {
          for (std::size_t i = 0; i < n; ++i) {
            cipher.encrypt_block(
                std::span<const std::uint8_t>{in.data() + i * block, block},
                std::span<std::uint8_t>{out.data() + i * block, block});
          }
        },
        reps);
  } else if (path == "batch") {
    seconds = best_seconds([&] { cipher.encrypt_blocks(in, out, n); }, reps);
  } else {  // "ofb": the per-segment stream path on a bulk buffer.
    seconds = best_seconds(
        [&] {
          stream.reset(iv);
          stream.apply(out);
        },
        reps);
  }
  g_sink8 = g_sink8 ^ out[out.size() / 2];

  Point p;
  p.algorithm = std::string(tv::crypto::to_string(cipher_algorithm(cipher)));
  p.backend = std::string(backend);
  p.path = std::string(path);
  p.seconds = seconds;
  const double total = static_cast<double>(n * block);
  p.mb_s = total / seconds / 1e6;
  const double ghz = tv::util::tsc_ghz();
  p.cycles_per_byte = ghz > 0.0 ? seconds * ghz * 1e9 / total : 0.0;
  return p;
}

/// Reverse-map a cipher to its Algorithm from name/key size (the bench
/// builds each cipher itself, so this only keeps labels honest).
Algorithm cipher_algorithm(const tv::crypto::BlockCipher& cipher) {
  if (cipher.block_size() == 8) return Algorithm::kTripleDes;
  return cipher.key_size() == 16 ? Algorithm::kAes128 : Algorithm::kAes256;
}

std::string json_number(double v) {
  return v > 0.0 && std::isfinite(v) ? tv::util::fmt("%.6g", v) : "null";
}

}  // namespace

int main(int argc, char** argv) {
  auto options = tv::bench::BenchOptions::parse(argc, argv);
  const std::size_t bulk_bytes = options.quick ? (1u << 18) : (1u << 20);
  const int reps = options.quick ? 3 : 5;
  const std::uint64_t key_seed = 0x7eedfacecafef00dULL;

  std::printf("bench_hotpath: %zu KiB buffers, best of %d, tsc %.3f GHz, "
              "aes-ni %s\n\n",
              bulk_bytes >> 10, reps, tv::util::tsc_ghz(),
              tv::crypto::aes_ni_available() ? "yes" : "no");

  // --- cipher paths -----------------------------------------------------
  std::vector<Point> cipher_points;
  std::vector<Point> ofb_points;
  for (Algorithm alg :
       {Algorithm::kAes128, Algorithm::kAes256, Algorithm::kTripleDes}) {
    const auto scalar =
        tv::crypto::make_cipher_from_seed(alg, key_seed, CipherBackend::kScalar);
    cipher_points.push_back(
        measure_point(*scalar, "scalar", "block", bulk_bytes, reps));
    cipher_points.push_back(
        measure_point(*scalar, "scalar", "batch", bulk_bytes, reps));
    if (alg != Algorithm::kTripleDes && tv::crypto::aes_ni_available()) {
      const auto ni = tv::crypto::make_cipher_from_seed(alg, key_seed,
                                                        CipherBackend::kAesNi);
      cipher_points.push_back(
          measure_point(*ni, "aes-ni", "batch", bulk_bytes, reps));
    }
    // OFB through whatever make_cipher selects by default — the path the
    // packetizer and live sender actually run.
    const auto deployed =
        tv::crypto::make_cipher_from_seed(alg, key_seed, CipherBackend::kAuto);
    ofb_points.push_back(measure_point(
        *deployed,
        tv::crypto::aes_ni_selected(alg) ? "aes-ni" : "scalar", "ofb",
        bulk_bytes, reps));
  }

  std::printf("%-10s %-8s %-6s %12s %14s\n", "algorithm", "backend", "path",
              "MB/s", "cycles/byte");
  for (const auto& p : cipher_points) {
    std::printf("%-10s %-8s %-6s %12.1f %14.2f\n", p.algorithm.c_str(),
                p.backend.c_str(), p.path.c_str(), p.mb_s, p.cycles_per_byte);
  }
  for (const auto& p : ofb_points) {
    std::printf("%-10s %-8s %-6s %12.1f %14.2f\n", p.algorithm.c_str(),
                p.backend.c_str(), p.path.c_str(), p.mb_s, p.cycles_per_byte);
  }

  // --- DCT --------------------------------------------------------------
  constexpr std::size_t kDctBlocks = 4096;
  std::vector<tv::video::Block8x8> blocks(kDctBlocks);
  std::uint32_t lcg = 2013;
  for (auto& b : blocks) {
    for (auto& v : b) {
      lcg = lcg * 1664525u + 1013904223u;
      v = static_cast<double>(lcg >> 24) - 128.0;
    }
  }
  const double fwd_s = best_seconds(
      [&] {
        double acc = 0.0;
        for (const auto& b : blocks) acc += tv::video::forward_dct(b)[0];
        g_sinkd = acc;
      },
      reps);
  const double round_s = best_seconds(
      [&] {
        double acc = 0.0;
        for (const auto& b : blocks) {
          const auto coeff = tv::video::forward_dct(b);
          const auto q = tv::video::quantize(coeff, 12.0);
          acc += tv::video::inverse_dct(tv::video::dequantize(q, 12.0))[0];
        }
        g_sinkd = acc;
      },
      reps);
  const double fwd_blocks_s = static_cast<double>(kDctBlocks) / fwd_s;
  const double round_blocks_s = static_cast<double>(kDctBlocks) / round_s;
  std::printf("\ndct: forward %.0f blocks/s, quant round-trip %.0f blocks/s\n",
              fwd_blocks_s, round_blocks_s);

  // --- end-to-end transfer ---------------------------------------------
  const int frames = options.quick ? 60 : 120;
  const auto workload = tv::core::build_workload(
      tv::video::MotionLevel::kLow, 30, frames, options.seed);
  tv::util::Arena arena;
  auto packets = tv::net::clone_packets(workload.packets, arena);
  const auto cipher = tv::crypto::make_cipher_from_seed(
      Algorithm::kAes128, key_seed, CipherBackend::kAuto);
  const std::vector<std::uint8_t> flow_iv(cipher->block_size(),
                                          static_cast<std::uint8_t>(0x3c));
  tv::net::encrypt_selected(packets, std::vector<bool>(packets.size(), true),
                            *cipher, flow_iv);
  tv::core::PipelineConfig config;
  config.device = tv::core::samsung_galaxy_s2();
  config.algorithm = Algorithm::kAes128;
  const double sim_s = best_seconds(
      [&] {
        const auto result =
            tv::core::simulate_transfer(config, packets, options.seed);
        g_sinkd = result.duration_s;
      },
      std::max(1, reps - 2));
  const double packets_per_s = static_cast<double>(packets.size()) / sim_s;
  // Steady-state heap traffic of one transfer (the loop above warmed every
  // lazy path): with arena-backed packets this is the handful of result
  // vectors, so per-packet it sits at ~0.
  const std::uint64_t allocs_before =
      g_heap_allocations.load(std::memory_order_relaxed);
  {
    const auto result = tv::core::simulate_transfer(config, packets,
                                                    options.seed);
    g_sinkd = result.duration_s;
  }
  const std::uint64_t transfer_allocs =
      g_heap_allocations.load(std::memory_order_relaxed) - allocs_before;
  const double allocs_per_packet =
      static_cast<double>(transfer_allocs) /
      static_cast<double>(packets.size());
  std::printf(
      "transfer: %zu packets simulated at %.0f packets/s (host), "
      "%.4f heap allocations/packet (%" PRIu64 " per transfer)\n",
      packets.size(), packets_per_s, allocs_per_packet, transfer_allocs);
  std::printf(
      "arena: %zu payload bytes in %" PRIu64 " chunk(s), %" PRIu64
      " arena allocation(s)\n",
      arena.bytes_in_use(), arena.chunk_count(), arena.allocation_count());

  // --- speedups the acceptance gate reads -------------------------------
  const auto find_point = [&](std::string_view alg, std::string_view backend,
                              std::string_view path) -> const Point* {
    for (const auto& p : cipher_points) {
      if (p.algorithm == alg && p.backend == backend && p.path == path) {
        return &p;
      }
    }
    return nullptr;
  };
  const std::string aes128(tv::crypto::to_string(Algorithm::kAes128));
  const Point* aes_block = find_point(aes128, "scalar", "block");
  const Point* aes_batch = find_point(aes128, "scalar", "batch");
  const Point* aes_ni = find_point(aes128, "aes-ni", "batch");
  const double batch_speedup =
      aes_block && aes_batch ? aes_block->seconds / aes_batch->seconds : 0.0;
  const double ni_speedup =
      aes_block && aes_ni ? aes_block->seconds / aes_ni->seconds : 0.0;
  std::printf("speedup vs per-block scalar AES-128: batch %.2fx, aes-ni "
              "%.2fx\n",
              batch_speedup, ni_speedup);

  // --- JSON -------------------------------------------------------------
  if (!options.json_path.empty()) {
    std::ofstream out(options.json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open --json file '%s'\n",
                   options.json_path.c_str());
      return 2;
    }
    out << "{\n";
    out << "  \"schema\": \"tv-bench-hotpath-v2\",\n";
    out << "  \"quick\": " << (options.quick ? "true" : "false") << ",\n";
    out << "  \"buffer_bytes\": " << bulk_bytes << ",\n";
    out << "  \"tsc_ghz\": " << json_number(tv::util::tsc_ghz()) << ",\n";
    out << "  \"cycle_clock_available\": "
        << (tv::util::cycle_clock_available() ? "true" : "false") << ",\n";
    out << "  \"aes_ni_available\": "
        << (tv::crypto::aes_ni_available() ? "true" : "false") << ",\n";
    out << "  \"ciphers\": [\n";
    const auto emit_point = [&](const Point& p, bool last) {
      out << "    {\"algorithm\": \"" << p.algorithm << "\", \"backend\": \""
          << p.backend << "\", \"path\": \"" << p.path
          << "\", \"mb_s\": " << json_number(p.mb_s)
          << ", \"cycles_per_byte\": " << json_number(p.cycles_per_byte)
          << "}" << (last ? "" : ",") << "\n";
    };
    for (std::size_t i = 0; i < cipher_points.size(); ++i) {
      emit_point(cipher_points[i], i + 1 == cipher_points.size());
    }
    out << "  ],\n";
    out << "  \"ofb\": [\n";
    for (std::size_t i = 0; i < ofb_points.size(); ++i) {
      emit_point(ofb_points[i], i + 1 == ofb_points.size());
    }
    out << "  ],\n";
    out << "  \"dct\": {\"forward_blocks_per_s\": "
        << json_number(fwd_blocks_s)
        << ", \"roundtrip_blocks_per_s\": " << json_number(round_blocks_s)
        << "},\n";
    out << "  \"transfer\": {\"packets\": " << packets.size()
        << ", \"packets_per_s\": " << json_number(packets_per_s)
        << ", \"allocations_per_packet\": " << json_number(allocs_per_packet)
        << ", \"allocations_per_transfer\": " << transfer_allocs << "},\n";
    out << "  \"arena\": {\"payload_bytes\": " << arena.bytes_in_use()
        << ", \"chunks\": " << arena.chunk_count()
        << ", \"allocations\": " << arena.allocation_count() << "},\n";
    out << "  \"speedups\": {\"aes128_batch_over_block\": "
        << json_number(batch_speedup)
        << ", \"aes128_aesni_over_block\": " << json_number(ni_speedup)
        << "}\n";
    out << "}\n";
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}
