// parallel_rows.hpp — run an independent-rows loop as slices on the WorkerPool.
//
// Host-side loops whose items do not interact (the input fill, the
// Freivalds verifier, GridPlanner::plan_batch) split [0, n) into one
// contiguous slice per worker.  parallel_slices does the dispatch for a
// width the caller chose; parallel_rows picks the width for a row loop.
// Small row loops run inline, since a pool dispatch would cost more than it
// saves.  So does a row loop started on a pool worker (inside a rank body
// or another pooled task), which must not wait on the pool that is running
// it.
#pragma once

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>

#include "machine/worker_pool.hpp"
#include "util/math.hpp"

namespace camb {

/// Fewest rows a slice gets: rows / kParallelRowsFloor caps the width.
inline constexpr i64 kParallelRowsFloor = 32;
/// Loops over fewer elements (rows * cols) than this run inline.
inline constexpr i64 kParallelElementsFloor = i64{1} << 16;

/// Calls fn(begin, end) once for each of `width` contiguous slices that
/// together cover [0, n), each slice on its own thread; width <= 1 makes
/// one inline call.  fn must be safe to run concurrently on disjoint
/// slices.  If slices throw, the first exception caught is rethrown here
/// once every slice has returned.
template <typename Fn>
void parallel_slices(i64 n, i64 width, const Fn& fn) {
  if (width <= 1) {
    fn(i64{0}, n);
    return;
  }
  std::exception_ptr failure;
  std::mutex failure_mutex;
  WorkerPool::instance().run(static_cast<int>(width), [&](int slice) {
    try {
      fn(n * slice / width, n * (slice + 1) / width);
    } catch (...) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (!failure) failure = std::current_exception();
    }
  });
  if (failure) std::rethrow_exception(failure);
}

/// parallel_slices over the rows of a rows x cols loop, as wide as
/// min(hardware_concurrency, rows / kParallelRowsFloor), or inline below
/// kParallelElementsFloor elements or on a pool worker.
template <typename Fn>
void parallel_rows(i64 rows, i64 cols, const Fn& fn) {
  i64 width = 1;
  if (rows * cols >= kParallelElementsFloor && !WorkerPool::on_pool_worker()) {
    // Read once: hardware_concurrency reads sysfs on every call.
    static const i64 hw = std::max(1u, std::thread::hardware_concurrency());
    width = std::min(hw, rows / kParallelRowsFloor);
  }
  parallel_slices(rows, width, fn);
}

}  // namespace camb
