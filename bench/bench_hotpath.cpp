// Hot-path micro-suite: the perf trajectory of the batched cipher API,
// the AES-NI backend, the vectorized DCT, the two layers of a workload
// build (scene render and encode), the decode an eavesdropper runs, the
// end-to-end transfer pipeline and the deadline scheduler of a crowded
// cell — the numbers behind BENCH_hotpath.json (docs/benchmarks.md).
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

#include "cell/scheduler.hpp"
#include "common.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "crypto/aes_ni.hpp"
#include "crypto/ofb.hpp"
#include "crypto/suite.hpp"
#include "net/packetizer.hpp"
#include "util/cycle_clock.hpp"
#include "util/thread_pool.hpp"
#include "video/dct.hpp"
#include "util/arena.hpp"
#include "video/codec.hpp"
#include "video/scene.hpp"

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
  // Machine-specific timings: --json writes them; the pools are sized here.
  auto options = tv::bench::BenchOptions::parse(
      argc, argv, tv::bench::BenchOptions::kJson);
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
  // The decoder's per-block dequantize and inverse transform, over level
  // blocks whose extents (the side of the smallest top-left square that
  // holds every nonzero level) follow the mix counted in a sweep-grid
  // decode: n = 1..8 in 14/23/29/11/9/5/3/6 percent of coded blocks.
  static constexpr int kExtentPercent[8] = {14, 23, 29, 11, 9, 5, 3, 6};
  std::vector<tv::video::QuantBlock> levels(kDctBlocks);
  for (auto& q : levels) {
    lcg = lcg * 1664525u + 1013904223u;
    int draw = static_cast<int>((lcg >> 8) % 100);
    int n = 1;
    while (draw >= kExtentPercent[n - 1]) {
      draw -= kExtentPercent[n - 1];
      ++n;
    }
    q = {};
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) {
        lcg = lcg * 1664525u + 1013904223u;
        q[static_cast<std::size_t>(r * 8 + c)] =
            static_cast<std::int16_t>(static_cast<int>(lcg >> 29) - 4);
      }
    }
    q[static_cast<std::size_t>((n - 1) * 8 + n - 1)] = 1;  // extent is n.
  }
  const double inverse_s = best_seconds(
      [&] {
        double acc = 0.0;
        for (const auto& q : levels) {
          const int n = tv::video::level_extent(q);
          acc += tv::video::inverse_dct(
              tv::video::dequantize_deadzone(q, 12.0, n), n)[0];
        }
        g_sinkd = acc;
      },
      reps);
  const double fwd_blocks_s = static_cast<double>(kDctBlocks) / fwd_s;
  const double round_blocks_s = static_cast<double>(kDctBlocks) / round_s;
  const double inverse_blocks_s = static_cast<double>(kDctBlocks) / inverse_s;
  std::printf("\ndct: forward %.0f blocks/s, quant round-trip %.0f blocks/s, "
              "decoder inverse %.0f blocks/s\n",
              fwd_blocks_s, round_blocks_s, inverse_blocks_s);

  // --- workload build layers ------------------------------------------
  // What core::build_workload spends per frame on high-motion CIF, serial:
  // the scene render and the encode (build_workload's high-motion
  // quantizer).  The clip crosses the preset's scene cut at frame 45.
  const int video_frames = options.quick ? 50 : 60;
  const tv::video::SceneGenerator scene{
      tv::video::SceneParameters::preset(tv::video::MotionLevel::kHigh),
      options.seed};
  tv::video::FrameSequence clip;
  const double render_s = best_seconds(
      [&] { clip = scene.render_clip(video_frames); }, std::max(1, reps - 2));
  tv::video::CodecConfig codec;
  codec.p_qstep = 24.0;
  const tv::video::Encoder encoder{codec};
  tv::video::EncodedStream stream;
  const double encode_s = best_seconds(
      [&] {
        stream = encoder.encode(clip);
        g_sinkd = static_cast<double>(stream.total_bytes());
      },
      std::max(1, reps - 2));
  // The same encode on a 4-thread pool: the clip's two GOPs run as
  // chains side by side, each frame's macroblock rows inside them.  More
  // rounds than the serial rows: on a shared VM the first few hundred
  // milliseconds of a burst of threads can run at one vCPU's pace.
  tv::util::ThreadPool encode_pool{4};
  const double encode_pooled_s = best_seconds(
      [&] {
        g_sinkd = static_cast<double>(
            encoder.encode(clip, &encode_pool).total_bytes());
      },
      2 * reps);
  // The decode an eavesdropper runs under policy I: the stream with its
  // I-frames erased, so every P-frame predicts from a concealed reference.
  std::vector<tv::video::ReceivedFrameData> no_i_frames;
  for (const auto& f : stream.frames) {
    no_i_frames.push_back(
        f.is_i ? tv::video::ReceivedFrameData::lost(f.data.size())
               : tv::video::ReceivedFrameData::intact(f.data));
  }
  const tv::video::Decoder decoder{codec};
  const double decode_s = best_seconds(
      [&] {
        g_sinkd = static_cast<double>(
            decoder.decode_stream(stream.width, stream.height, no_i_frames)
                .back()
                .y(0, 0));
      },
      std::max(1, reps - 2));
  const double render_ms = render_s * 1e3 / video_frames;
  const double encode_ms = encode_s * 1e3 / video_frames;
  const double encode_pooled_ms = encode_pooled_s * 1e3 / video_frames;
  const double decode_ms = decode_s * 1e3 / video_frames;
  std::printf("video: high-motion CIF, %d frames, serial: render %.2f "
              "ms/frame, encode %.2f ms/frame, decode without I-frames "
              "%.2f ms/frame; encode on 4 threads %.2f ms/frame\n",
              video_frames, render_ms, encode_ms, decode_ms,
              encode_pooled_ms);

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

  // --- cell scheduler ---------------------------------------------------
  // One overloaded 10 000-flow schedule on the default cell: two demand
  // classes alternating (policy all with a 4 s deadline, I with 8 s), so
  // the scheduler walks the degrade ladder and then sheds all but 15
  // flows, one contention solve per admitted count.  Serial, then
  // with the solves computed ahead on a 4-thread pool.
  constexpr int kCellFlows = 10000;
  std::vector<tv::cell::FlowDemand> demands(kCellFlows);
  for (std::size_t f = 0; f < demands.size(); ++f) {
    tv::cell::FlowDemand& d = demands[f];
    d.index = f;
    d.policy = {f % 2 == 0 ? tv::policy::Mode::kIFrames
                           : tv::policy::Mode::kAll,
                Algorithm::kAes256, 0.0};
    d.deadline_s = f % 2 == 0 ? 4.0 : 8.0;
    d.clip_duration_s = 3.0;
    d.packet_count = 400;
    d.i_packet_share = 0.3;
    d.encryption_mean_s = 1.5e-4;
    d.transmission_mean_s = 2.8e-3;
  }
  const tv::cell::DeadlineScheduler scheduler;
  tv::cell::ScheduleResult schedule;
  const double schedule_s = best_seconds(
      [&] { schedule = scheduler.schedule(demands, {}); }, reps);
  tv::util::ThreadPool cell_pool{4};
  tv::cell::ScheduleResult pooled_schedule;
  const double schedule_pooled_s = best_seconds(
      [&] { pooled_schedule = scheduler.schedule(demands, {}, &cell_pool); },
      2 * reps);
  std::printf("cell: %d-flow overloaded schedule, %d admitted: serial %.2f "
              "ms (%d solves), on 4 threads %.2f ms (%d solves)\n",
              kCellFlows, schedule.admitted, schedule_s * 1e3,
              schedule.solves, schedule_pooled_s * 1e3,
              pooled_schedule.solves);

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
        << ", \"inverse_blocks_per_s\": " << json_number(inverse_blocks_s)
        << "},\n";
    out << "  \"video\": {\"frames\": " << video_frames
        << ", \"render_ms_per_frame\": " << json_number(render_ms)
        << ", \"encode_ms_per_frame\": " << json_number(encode_ms)
        << ", \"encode_pooled_ms_per_frame\": "
        << json_number(encode_pooled_ms)
        << ", \"decode_ms_per_frame\": " << json_number(decode_ms)
        << "},\n";
    out << "  \"transfer\": {\"packets\": " << packets.size()
        << ", \"packets_per_s\": " << json_number(packets_per_s)
        << ", \"allocations_per_packet\": " << json_number(allocs_per_packet)
        << ", \"allocations_per_transfer\": " << transfer_allocs << "},\n";
    out << "  \"arena\": {\"payload_bytes\": " << arena.bytes_in_use()
        << ", \"chunks\": " << arena.chunk_count()
        << ", \"allocations\": " << arena.allocation_count() << "},\n";
    out << "  \"cell\": {\"flows\": " << kCellFlows
        << ", \"admitted\": " << schedule.admitted
        << ", \"schedule_ms\": " << json_number(schedule_s * 1e3)
        << ", \"solves\": " << schedule.solves
        << ", \"schedule_pooled_ms\": "
        << json_number(schedule_pooled_s * 1e3)
        << ", \"pooled_solves\": " << pooled_schedule.solves << "},\n";
    out << "  \"speedups\": {\"aes128_batch_over_block\": "
        << json_number(batch_speedup)
        << ", \"aes128_aesni_over_block\": " << json_number(ni_speedup)
        << "}\n";
    out << "}\n";
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}
