#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "util/sink.hpp"
#include "util/thread_pool.hpp"

namespace tv::util {
namespace {

using Cell = std::tuple<std::size_t, int, std::string, double>;

std::vector<Cell> grid(const std::vector<int>& a,
                       const std::vector<std::string>& b,
                       const std::vector<double>& c) {
  return cartesian(
      [](std::size_t index, int x, const std::string& y, double z) {
        return Cell{index, x, y, z};
      },
      a, b, c);
}

TEST(Cartesian, RowMajorWithTheLastAxisFastest) {
  const std::vector<Cell> cells = grid({1, 2}, {"a", "b", "c"}, {0.5, 1.5});
  ASSERT_EQ(cells.size(), 12u);
  std::size_t expected = 0;
  for (int x : {1, 2}) {
    for (const char* y : {"a", "b", "c"}) {
      for (double z : {0.5, 1.5}) {
        EXPECT_EQ(cells[expected], (Cell{expected, x, y, z}));
        ++expected;
      }
    }
  }
}

TEST(Cartesian, AnEmptyAxisYieldsNoCells) {
  EXPECT_TRUE(grid({}, {"a"}, {1.0}).empty());
  EXPECT_TRUE(grid({1, 2}, {}, {1.0}).empty());
  EXPECT_TRUE(grid({1, 2}, {"a"}, {}).empty());
}

TEST(Cartesian, OneAxisIsItsOwnOrder) {
  const std::vector<int> axis{7, 3, 5};
  const auto cells = cartesian(
      [](std::size_t index, int v) { return std::pair{index, v}; }, axis);
  ASSERT_EQ(cells.size(), 3u);
  for (std::size_t i = 0; i < axis.size(); ++i) {
    EXPECT_EQ(cells[i], (std::pair{i, axis[i]}));
  }
}

struct Spec {};

TEST(StreamGrid, RecordsRowsPoolSizeAndOrderedOutput) {
  for (const Rows rows : {Rows::kPool, Rows::kInOrder}) {
    ThreadPool pool{3};
    CollectSink<Spec, int> sink;
    bool prepared = false;
    const GridSummary summary = stream_grid(
        &pool, rows, Spec{}, 20, [&] { prepared = true; },
        [&](std::size_t i) {
          EXPECT_TRUE(prepared);
          return static_cast<int>(i * i);
        },
        sink,
        [](GridSummary& s, const int& row) {
          if (row % 2 == 0) ++s.passed_cells;
        });
    EXPECT_EQ(summary.cells, 20u);
    EXPECT_EQ(summary.threads, 3u);
    EXPECT_EQ(summary.passed_cells, 10u);
    EXPECT_GE(summary.wall_s, 0.0);
    ASSERT_EQ(sink.results.size(), 20u);
    for (std::size_t i = 0; i < sink.results.size(); ++i) {
      EXPECT_EQ(sink.results[i], static_cast<int>(i * i));
    }
  }
}

TEST(StreamGrid, SerialRunReportsOneThread) {
  CollectSink<Spec, int> sink;
  const GridSummary summary = stream_grid(
      nullptr, Rows::kPool, Spec{}, 0, [] {},
      [](std::size_t i) { return static_cast<int>(i); }, sink);
  EXPECT_EQ(summary.cells, 0u);
  EXPECT_EQ(summary.threads, 1u);
  EXPECT_TRUE(sink.results.empty());
}

}  // namespace
}  // namespace tv::util
