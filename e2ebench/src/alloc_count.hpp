// Counting global operator new for the benchmark binary (the idiom of
// bench/bench_hotpath.cpp, but counted per thread so the untraced passes
// pay no shared-cache-line traffic).  Read deltas around a region.
#pragma once

#include <cstdint>

namespace e2e {

/// Heap allocations made through operator new on the calling thread.
[[nodiscard]] std::uint64_t thread_allocations() noexcept;

}  // namespace e2e
