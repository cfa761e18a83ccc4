// Traced recompositions of the library's batch entry points.
//
// Each function does what its library counterpart does, calling the same
// public functions in the same order with the same seeds, and records a
// span around every call into a layer.  The benchmark checks that each
// one reproduces its counterpart bit for bit (workload bytes and
// distortion references, per-cell JSONL), so a drift between this file
// and the library shows up as a failed run, not as wrong layer numbers.
//
// Span names are the layer metric names without their unit suffix:
//   setup:  core.build_workload > video.scene, video.encode,
//           net.packetize, video.lossless_decode, distortion.fit
//   sweep:  sweep.cell > core.experiment > core.prepare, crypto.encrypt,
//           core.rep > core.pipeline, net.reassemble, video.decode,
//           video.quality; core.fold
//   cell:   cell.point > cell.prepare, cell.schedule, cell.flow >
//           core.prepare, crypto.encrypt, core.pipeline; cell.fold
#pragma once

#include <cstdint>
#include <vector>

#include "cell/cell.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

/// core::build_workload.
[[nodiscard]] tv::core::Workload traced_build_workload(
    tv::video::MotionLevel motion, int gop_size, int frames,
    std::uint64_t seed, double fps = 30.0);

/// Bit-for-bit equality of two builds of one workload: encoded frames,
/// packet metadata and wire bytes, base_mse, null_mse and the fitted
/// distance-distortion curve.
[[nodiscard]] bool identical(const tv::core::Workload& a,
                             const tv::core::Workload& b);

/// core::run_experiment.
[[nodiscard]] tv::core::ExperimentResult traced_run_experiment(
    const tv::core::ExperimentSpec& spec, const tv::core::Workload& workload,
    tv::util::ThreadPool* pool);

/// core::SweepRunner::run's cell loop: every cell of `spec` on the pool,
/// results returned in cell order.  Workloads come from `cache`.
[[nodiscard]] std::vector<tv::core::CellResult> traced_sweep(
    const tv::core::SweepSpec& spec, tv::core::WorkloadCache& cache,
    tv::util::ThreadPool* pool);

/// cell::run_cell.
[[nodiscard]] tv::cell::CellResult traced_run_cell(
    const tv::cell::CellSpec& spec, tv::core::WorkloadCache& cache,
    tv::util::ThreadPool* pool);

}  // namespace e2e
