// Unit tests for matmul/grid3d.hpp — Algorithm 1 on the simulated machine:
// correctness against the serial reference and exact communication counts.
#include "matmul/grid3d.hpp"

#include <gtest/gtest.h>

#include "core/cost_eq3.hpp"
#include "matmul/runner.hpp"

namespace camb::mm {
namespace {

using camb::core::Shape;

const RunOptions kVerified = RunOptions::verified(VerifyMode::kReference);
const RunOptions kUnverified{};  // VerifyMode::kNone: no assembly

void expect_correct_and_exactly_counted(const Shape& shape, const Grid3& grid) {
  Grid3dConfig cfg{shape, grid, coll::AllgatherAlgo::kAuto,
                   coll::ReduceScatterAlgo::kAuto};
  const RunReport report = run_grid3d(cfg, kVerified);
  EXPECT_LE(report.max_abs_error, 1e-10)
      << "shape=(" << shape.n1 << "," << shape.n2 << "," << shape.n3
      << ") grid=" << grid.p1 << "x" << grid.p2 << "x" << grid.p3;
  EXPECT_EQ(report.measured_critical_recv, report.predicted_words());
  EXPECT_GE(static_cast<double>(report.measured_critical_recv) + 1e-6,
            report.lower_bound_words);
}

TEST(Grid3d, SingleProcessorNoComm) {
  Grid3dConfig cfg{Shape{8, 6, 4}, Grid3{1, 1, 1}};
  const RunReport report = run_grid3d(cfg, kVerified);
  EXPECT_LE(report.max_abs_error, 1e-12);
  EXPECT_EQ(report.measured_critical_recv, 0);
  EXPECT_EQ(report.total_network_words, 0);
}

TEST(Grid3d, OneDGrids) {
  expect_correct_and_exactly_counted(Shape{12, 6, 4}, Grid3{3, 1, 1});
  expect_correct_and_exactly_counted(Shape{12, 6, 4}, Grid3{1, 3, 1});
  expect_correct_and_exactly_counted(Shape{12, 6, 4}, Grid3{1, 1, 4});
}

TEST(Grid3d, TwoDGrids) {
  expect_correct_and_exactly_counted(Shape{12, 8, 6}, Grid3{2, 3, 1});
  expect_correct_and_exactly_counted(Shape{12, 8, 6}, Grid3{2, 1, 3});
  expect_correct_and_exactly_counted(Shape{12, 8, 6}, Grid3{1, 4, 2});
}

TEST(Grid3d, ThreeDGrids) {
  expect_correct_and_exactly_counted(Shape{8, 8, 8}, Grid3{2, 2, 2});
  expect_correct_and_exactly_counted(Shape{12, 8, 6}, Grid3{3, 2, 2});
  expect_correct_and_exactly_counted(Shape{16, 12, 8}, Grid3{4, 3, 2});
}

TEST(Grid3d, NonDivisibleDimensions) {
  // Near-equal splits must still be correct and exactly predicted.
  expect_correct_and_exactly_counted(Shape{13, 7, 5}, Grid3{3, 2, 2});
  expect_correct_and_exactly_counted(Shape{9, 9, 9}, Grid3{2, 2, 2});
  expect_correct_and_exactly_counted(Shape{11, 3, 2}, Grid3{4, 2, 1});
}

TEST(Grid3d, TinyDimensionsSmallerThanGrid) {
  // Some ranks own zero-sized chunks; the algorithm must still work.
  expect_correct_and_exactly_counted(Shape{2, 2, 2}, Grid3{3, 1, 2});
  expect_correct_and_exactly_counted(Shape{1, 5, 1}, Grid3{2, 2, 2});
}

TEST(Grid3d, CollectiveVariantsAgree) {
  const Shape shape{12, 8, 8};
  const Grid3 grid{2, 2, 2};
  for (auto ag : {coll::AllgatherAlgo::kRing,
                  coll::AllgatherAlgo::kRecursiveDoubling,
                  coll::AllgatherAlgo::kBruck}) {
    for (auto rs : {coll::ReduceScatterAlgo::kRing,
                    coll::ReduceScatterAlgo::kRecursiveHalving}) {
      Grid3dConfig cfg{shape, grid, ag, rs};
      const RunReport report = run_grid3d(cfg, kVerified);
      EXPECT_LE(report.max_abs_error, 1e-10);
      EXPECT_EQ(report.measured_critical_recv, report.predicted_words());
    }
  }
}

TEST(Grid3d, PhaseBreakdownMatchesEq3UnderDivisibility) {
  // With a divisible shape and equal chunks, the per-phase critical-path
  // received words are exactly the (1 - 1/p_i) w_i terms of §5.1.
  const Shape shape{24, 12, 8};
  const Grid3 grid{2, 3, 2};
  Grid3dConfig cfg{shape, grid};
  const RunReport report = run_grid3d(cfg, kUnverified);
  const auto breakdown = camb::core::alg1_comm_breakdown(shape, grid);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(report.phase_recv.at(kPhaseAllgatherA)),
      breakdown.allgather_a);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(report.phase_recv.at(kPhaseAllgatherB)),
      breakdown.allgather_b);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(report.phase_recv.at(kPhaseReduceScatterC)),
      breakdown.reduce_scatter_c);
}

TEST(Grid3d, AttainsLowerBoundExactlyWithOptimalGrid) {
  // The tightness statement of §5.2, executed: scaled-down paper shape
  // (aspect ratios preserved), optimal grids per case, divisible dims.
  const Shape shape{96 * 4, 24 * 4, 6 * 4};  // 384 x 96 x 24; m/n=4, mn/k^2=64
  struct Case {
    camb::i64 P;
    Grid3 grid;
  };
  // P = 3 (1D regime), P = 16 (2D regime: p = m sqrt(P/mn) = 8, q = 2), and
  // P = 64 (the 2D/3D boundary, cubic local volumes with r = 1).
  for (const auto& c : {Case{3, Grid3{3, 1, 1}}, Case{16, Grid3{8, 2, 1}},
                        Case{64, Grid3{16, 4, 1}}}) {
    Grid3dConfig cfg{shape, c.grid};
    const RunReport report = run_grid3d(cfg, kVerified);
    EXPECT_LE(report.max_abs_error, 1e-10);
    EXPECT_DOUBLE_EQ(static_cast<double>(report.measured_critical_recv),
                     report.lower_bound_words)
        << "P=" << c.P;
  }
}

TEST(Grid3d, LayoutChunksCoverBlocks) {
  // The union of all ranks' C chunks covers the whole matrix exactly once.
  const Shape shape{10, 6, 7};
  const Grid3 grid{2, 3, 2};
  Grid3dConfig cfg{shape, grid};
  std::vector<int> covered(static_cast<std::size_t>(shape.n1 * shape.n3), 0);
  for (int r = 0; r < grid.total(); ++r) {
    const auto layout = grid3d_layout(cfg, r);
    for (i64 f = 0; f < layout.c.flat_size; ++f) {
      const i64 flat = layout.c.flat_start + f;
      const i64 i = layout.c.row0 + flat / layout.c.cols;
      const i64 j = layout.c.col0 + flat % layout.c.cols;
      covered[static_cast<std::size_t>(i * shape.n3 + j)]++;
    }
  }
  for (int c : covered) EXPECT_EQ(c, 1);
}

TEST(Grid3d, PredictionIsPerRankExact) {
  // Not just the max: every rank's received words must match its prediction.
  const Shape shape{14, 10, 6};
  const Grid3 grid{2, 2, 3};
  Grid3dConfig cfg{shape, grid};
  camb::Machine machine(static_cast<int>(grid.total()));
  machine.run([&](camb::RankCtx& ctx) { (void)grid3d_rank(ctx, cfg); });
  for (int r = 0; r < grid.total(); ++r) {
    EXPECT_EQ(machine.stats().rank_total(r).words_received(),
              grid3d_predicted_recv_words(cfg, r))
        << "rank " << r;
  }
}

}  // namespace
}  // namespace camb::mm
