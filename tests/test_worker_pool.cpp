// WorkerPool unit tests, centered on the reentrancy contract the fiber
// scheduler leans on: a nested or concurrent run cannot borrow the pool
// (the outer run holds it) and must degrade to plain std::threads — never
// deadlock, never drop a task.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "machine/parallel_rows.hpp"
#include "machine/worker_pool.hpp"

namespace camb {
namespace {

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(32);
  std::atomic<int> pooled{0};
  WorkerPool::instance().run(32, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
    if (WorkerPool::on_pool_worker()) pooled.fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // An uncontended top-level run uses pool workers, not the fallback.
  EXPECT_EQ(pooled.load(), 32);
  EXPECT_FALSE(WorkerPool::on_pool_worker()) << "main thread mislabeled";
}

TEST(WorkerPool, ZeroTasksIsANoop) {
  bool ran = false;
  WorkerPool::instance().run(0, [&](int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(WorkerPool, NestedRunFallsBackToPlainThreads) {
  std::atomic<int> outer_done{0};
  std::atomic<int> inner_done{0};
  std::atomic<int> inner_on_pool{0};
  WorkerPool::instance().run(2, [&](int) {
    EXPECT_TRUE(WorkerPool::on_pool_worker());
    // The pool is held by this very run: the nested run must complete on
    // plain threads (which report on_pool_worker() == false).
    WorkerPool::instance().run(3, [&](int) {
      if (WorkerPool::on_pool_worker()) inner_on_pool.fetch_add(1);
      inner_done.fetch_add(1);
    });
    outer_done.fetch_add(1);
  });
  EXPECT_EQ(outer_done.load(), 2);
  EXPECT_EQ(inner_done.load(), 6);
  EXPECT_EQ(inner_on_pool.load(), 0);
}

TEST(WorkerPool, ConcurrentRunsBothComplete) {
  // Two top-level runs race for the pool: one wins the serial lock, the
  // loser silently degrades to plain threads.  Both must finish with every
  // task executed exactly once.
  std::vector<std::atomic<int>> hits_a(8);
  std::vector<std::atomic<int>> hits_b(8);
  std::thread ta([&] {
    WorkerPool::instance().run(
        8, [&](int i) { hits_a[static_cast<std::size_t>(i)].fetch_add(1); });
  });
  std::thread tb([&] {
    WorkerPool::instance().run(
        8, [&](int i) { hits_b[static_cast<std::size_t>(i)].fetch_add(1); });
  });
  ta.join();
  tb.join();
  for (const auto& h : hits_a) EXPECT_EQ(h.load(), 1);
  for (const auto& h : hits_b) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelSlices, CoverTheRangeOnceInContiguousSlices) {
  for (const i64 width : {i64{1}, i64{3}, i64{4}, i64{7}}) {
    std::vector<std::atomic<int>> hits(61);
    std::atomic<int> calls{0};
    parallel_slices(61, width, [&](i64 begin, i64 end) {
      calls.fetch_add(1);
      for (i64 i = begin; i < end; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    EXPECT_EQ(calls.load(), width);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "width " << width;
  }
}

TEST(ParallelSlices, RethrowsASliceExceptionAfterEverySliceReturns) {
  std::atomic<int> finished{0};
  EXPECT_THROW(parallel_slices(8, 4,
                               [&](i64 begin, i64) {
                                 if (begin == 2) {
                                   throw std::runtime_error("slice failed");
                                 }
                                 finished.fetch_add(1);
                               }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
  // The pool is intact afterwards.
  std::atomic<int> ran{0};
  WorkerPool::instance().run(4, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

TEST(ParallelRows, RunsSmallLoopsInlineAndLargeOnesOnThePool) {
  std::atomic<int> calls{0};
  parallel_rows(kParallelRowsFloor * 2, 8, [&](i64 begin, i64 end) {
    calls.fetch_add(1);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, kParallelRowsFloor * 2);
    EXPECT_FALSE(WorkerPool::on_pool_worker());
  });
  EXPECT_EQ(calls.load(), 1);

  // Above the floor a throwing slice reaches the caller, as it would inline.
  const i64 rows = kParallelRowsFloor * 4;
  EXPECT_THROW(parallel_rows(rows, kParallelElementsFloor, [&](i64, i64 end) {
                 if (end == rows) throw std::runtime_error("last slice");
               }),
               std::runtime_error);
}

TEST(ParallelRows, StaysInlineOnAPoolWorker) {
  std::atomic<int> calls{0};
  WorkerPool::instance().run(2, [&](int) {
    parallel_rows(kParallelRowsFloor * 8, kParallelElementsFloor,
                  [&](i64 begin, i64 end) {
                    calls.fetch_add(1);
                    EXPECT_EQ(end - begin, kParallelRowsFloor * 8);
                  });
  });
  EXPECT_EQ(calls.load(), 2);
}

}  // namespace
}  // namespace camb
