// Unit tests for matmul/grid3d_staged.hpp — the §6.2 limited-memory variant:
// identical bandwidth, latency scaled by the stage count, peak memory scaled
// down by it.
#include "matmul/grid3d_staged.hpp"

#include <gtest/gtest.h>

#include "matmul/runner.hpp"
#include "matmul/time_model.hpp"

namespace camb::mm {
namespace {

using camb::core::Shape;

const RunOptions kVerified = RunOptions::verified(VerifyMode::kReference);
const RunOptions kUnverified{};  // VerifyMode::kNone: no assembly

void expect_correct_and_counted(const Shape& shape, const Grid3& grid,
                                i64 stages) {
  Grid3dStagedConfig cfg{shape, grid, stages};
  const RunReport report = run_grid3d_staged(cfg, kVerified);
  EXPECT_LE(report.max_abs_error, 1e-10)
      << "shape=(" << shape.n1 << "," << shape.n2 << "," << shape.n3
      << ") grid=" << grid.p1 << "x" << grid.p2 << "x" << grid.p3
      << " stages=" << stages;
  EXPECT_EQ(report.measured_critical_recv, report.predicted_words())
      << "stages=" << stages;
}

TEST(Grid3dStaged, OneStageMatchesUnstagedExactly) {
  const Shape shape{16, 12, 8};
  const Grid3 grid{2, 3, 2};
  const auto unstaged = run_grid3d(Grid3dConfig{shape, grid}, kVerified);
  const auto staged =
      run_grid3d_staged(Grid3dStagedConfig{shape, grid, 1}, kVerified);
  EXPECT_LE(staged.max_abs_error, 1e-10);
  EXPECT_EQ(staged.measured_critical_recv, unstaged.measured_critical_recv);
  EXPECT_EQ(staged.measured_critical_messages,
            unstaged.measured_critical_messages);
}

TEST(Grid3dStaged, CorrectAcrossStageCounts) {
  const Shape shape{24, 12, 8};
  const Grid3 grid{2, 2, 2};
  for (i64 stages : {1, 2, 3, 4, 6, 12}) {
    expect_correct_and_counted(shape, grid, stages);
  }
}

TEST(Grid3dStaged, MoreStagesThanRows) {
  // Strips of zero rows must be handled (empty collectives).
  expect_correct_and_counted(Shape{6, 8, 8}, Grid3{2, 2, 2}, 5);
}

TEST(Grid3dStaged, NonDivisibleEverything) {
  expect_correct_and_counted(Shape{13, 7, 5}, Grid3{3, 2, 2}, 3);
  expect_correct_and_counted(Shape{9, 9, 9}, Grid3{2, 3, 1}, 4);
}

TEST(Grid3dStaged, BandwidthUnaffectedByStaging) {
  // The §6.2 claim, executed: received words identical for every stage
  // count (same grid, divisible shape so strip rounding is exact).
  const Shape shape{24, 12, 8};
  const Grid3 grid{2, 2, 2};
  const auto one =
      run_grid3d_staged(Grid3dStagedConfig{shape, grid, 1}, kUnverified);
  for (i64 stages : {2, 3, 4, 6}) {
    const auto s = run_grid3d_staged(Grid3dStagedConfig{shape, grid, stages},
                                     kUnverified);
    EXPECT_EQ(s.measured_critical_recv, one.measured_critical_recv)
        << "stages=" << stages;
  }
}

TEST(Grid3dStaged, LatencyGrowsWithStages) {
  const Shape shape{24, 12, 8};
  const Grid3 grid{2, 2, 2};
  const auto one =
      run_grid3d_staged(Grid3dStagedConfig{shape, grid, 1}, kUnverified);
  const auto six =
      run_grid3d_staged(Grid3dStagedConfig{shape, grid, 6}, kUnverified);
  EXPECT_GT(six.measured_critical_messages, one.measured_critical_messages);
  // Message counts match the analytic model.
  EXPECT_EQ(six.measured_critical_messages,
            grid3d_staged_messages(Grid3dStagedConfig{shape, grid, 6}, 0));
}

TEST(Grid3dStaged, PeakMemoryShrinksWithStages) {
  const Grid3dStagedConfig one{Shape{96, 96, 96}, Grid3{2, 2, 2}, 1};
  Grid3dStagedConfig many = one;
  many.stages = 8;
  EXPECT_LT(grid3d_staged_peak_memory_words(many),
            grid3d_staged_peak_memory_words(one));
  // The B term is the floor that staging cannot remove (§6.2).
  const auto terms = camb::core::alg1_positive_terms(one.shape, one.grid);
  EXPECT_GE(grid3d_staged_peak_memory_words(many), terms.b_words);
  Grid3dStagedConfig huge = one;
  huge.stages = 1 << 20;
  EXPECT_NEAR(grid3d_staged_peak_memory_words(huge), terms.b_words,
              terms.b_words * 0.01);
}

TEST(Grid3dStaged, TimeModelShowsTheTradeoff) {
  // With expensive messages, staging costs time; bandwidth term unchanged.
  const Shape shape{96, 96, 96};
  const Grid3 grid{4, 4, 4};
  MachineParams params;
  params.alpha = 1e-3;
  const auto t1 = alg1_staged_time(shape, grid, 1, params);
  const auto t8 = alg1_staged_time(shape, grid, 8, params);
  EXPECT_GT(t8.latency, t1.latency);
  EXPECT_DOUBLE_EQ(t8.bandwidth, t1.bandwidth);
  EXPECT_DOUBLE_EQ(t8.compute, t1.compute);
}

TEST(Grid3dStaged, StillAttainsBoundOnOptimalGrid) {
  // Staging is bandwidth-neutral, so the bound is still attained exactly.
  const Shape shape{384, 96, 24};
  const Grid3 grid{8, 2, 1};  // the P = 16 optimal grid
  const auto report =
      run_grid3d_staged(Grid3dStagedConfig{shape, grid, 4}, kVerified);
  EXPECT_LE(report.max_abs_error, 1e-10);
  EXPECT_NEAR(static_cast<double>(report.measured_critical_recv),
              report.lower_bound_words, 1e-9 * report.lower_bound_words);
}

}  // namespace
}  // namespace camb::mm
