#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace tv::util {
namespace {

TEST(ThreadPool, DefaultThreadCountIsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool{4};
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool{2};
  auto future = pool.submit(
      []() -> int { throw std::runtime_error{"boom"}; });
  EXPECT_THROW((void)future.get(), std::runtime_error);
}

TEST(ThreadPool, ManySubmissionsAllRun) {
  ThreadPool pool{4};
  constexpr int kTasks = 200;
  std::vector<std::future<int>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([i] { return i; }));
  }
  long long sum = 0;
  for (auto& f : futures) sum += f.get();
  EXPECT_EQ(sum, static_cast<long long>(kTasks) * (kTasks - 1) / 2);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool{4};
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool{4};
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 17) {
                                     throw std::runtime_error{"bad index"};
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool{2};  // fewer workers than outer iterations.
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool{1};
    // A slow head task backs up the queue so later tasks are still queued
    // when the destructor runs; all of them must still execute.
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, RunPendingTaskFromOutside) {
  ThreadPool pool{1};
  // Block the lone worker so a queued task is guaranteed pending, then
  // help from this thread.  Wait until the worker has *started* the
  // blocker before queueing — otherwise the helper below could pop the
  // blocker itself and spin on `release` forever.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto blocker = pool.submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  std::atomic<bool> ran{false};
  auto queued = pool.submit([&] { ran.store(true); });
  while (!ran.load()) {
    if (!pool.run_pending_task()) std::this_thread::yield();
  }
  release.store(true);
  blocker.get();
  queued.get();
  EXPECT_TRUE(ran.load());
}

TEST(RunOrdered, EmitsEveryResultInIndexOrder) {
  // Later indices finish first, so the pooled run must hold them back.
  const auto run = [](std::size_t i) {
    volatile double sink = 0.0;
    for (std::size_t k = 0; k < (64 - i) * 2000; ++k) sink = sink + 1.0;
    return i * i;
  };
  ThreadPool four{4};
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    std::vector<std::size_t> emitted;
    run_ordered(pool, 64, run,
                [&](std::size_t value) { emitted.push_back(value); });
    ASSERT_EQ(emitted.size(), 64u);
    for (std::size_t i = 0; i < emitted.size(); ++i) {
      EXPECT_EQ(emitted[i], i * i);
    }
  }
}

}  // namespace
}  // namespace tv::util
