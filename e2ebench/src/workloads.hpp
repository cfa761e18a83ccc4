// The benchmark's three workloads.  Each runs cold set-ups, then steady
// passes of a fixed amount of work until the time budget is spent, checks
// its outputs, and fills a Report.  See README.md for why each exists.
#pragma once

#include "harness.hpp"

namespace e2e {

/// The paper's Figs. 4/7/10 grid through core::SweepRunner.
[[nodiscard]] Report run_sweep_grid(const Options& options);

/// cell::CellRunner over a capacity axis of 10^3-10^4 flows.
[[nodiscard]] Report run_cell_capacity(const Options& options);

/// A closed loop of 4 clients uploading to one live::Server.
[[nodiscard]] Report run_live_fleet(const Options& options);

}  // namespace e2e
