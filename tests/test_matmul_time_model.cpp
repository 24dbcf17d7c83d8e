// Unit tests for matmul/time_model.hpp — the α-β-γ running-time estimates.
#include "matmul/time_model.hpp"

#include <gtest/gtest.h>

namespace camb::mm {
namespace {

using camb::core::Grid3;
using camb::core::Shape;

const RunOptions kUnverified{};  // VerifyMode::kNone: no assembly

TEST(TimeModel, TermsAreSeparable) {
  const Shape shape{96, 96, 96};
  const Grid3 grid{4, 4, 4};
  MachineParams params{2e-6, 3e-9, 5e-12};
  const auto t = alg1_time(shape, grid, params);
  // Scaling one parameter scales only its term.
  MachineParams alpha2 = params;
  alpha2.alpha *= 2;
  const auto t2 = alg1_time(shape, grid, alpha2);
  EXPECT_DOUBLE_EQ(t2.latency, 2 * t.latency);
  EXPECT_DOUBLE_EQ(t2.bandwidth, t.bandwidth);
  EXPECT_DOUBLE_EQ(t2.compute, t.compute);
  EXPECT_DOUBLE_EQ(t.total(), t.latency + t.bandwidth + t.compute);
}

TEST(TimeModel, BandwidthTermIsEq3) {
  const Shape shape{96, 96, 96};
  const Grid3 grid{4, 4, 4};
  MachineParams params{0.0, 1.0, 0.0};  // pure bandwidth clock
  const auto t = alg1_time(shape, grid, params);
  EXPECT_DOUBLE_EQ(t.total(),
                   camb::core::alg1_comm_breakdown(shape, grid).total());
}

TEST(TimeModel, LatencyCountsCollectiveRounds) {
  const Shape shape{96, 96, 96};
  MachineParams params{1.0, 0.0, 0.0};  // pure message clock
  // 4x4x4 grid with recursive collectives: 2 + 2 + 2 rounds.
  const auto t = alg1_time(shape, Grid3{4, 4, 4}, params);
  EXPECT_DOUBLE_EQ(t.total(), 6.0);
  // Ring collectives: 3 + 3 + 3 rounds.
  const auto ring = alg1_time(shape, Grid3{4, 4, 4}, params,
                              coll::AllgatherAlgo::kRing,
                              coll::ReduceScatterAlgo::kRing);
  EXPECT_DOUBLE_EQ(ring.total(), 9.0);
}

TEST(TimeModel, MatchesMeasuredRun) {
  // The closed form and a measured run agree exactly on a divisible config.
  const Shape shape{24, 12, 8};
  const Grid3 grid{2, 2, 2};
  MachineParams params{1e-5, 1e-8, 0.0};
  const auto predicted = alg1_time(shape, grid, params);
  const auto report = run_grid3d(Grid3dConfig{shape, grid}, kUnverified);
  const double measured = measured_time(report, 0.0, params);
  EXPECT_NEAR(predicted.total(), measured, 1e-12);
}

TEST(TimeModel, RecursiveCollectiveLatencyIsGridInvariant) {
  // A pleasant consequence of log-depth collectives: for any power-of-two
  // factorization p1 p2 p3 = P, the total round count is
  // log2(p1) + log2(p2) + log2(p3) = log2(P) — the §5.2 grid choice is free
  // in latency, so optimizing bandwidth is never a latency trade-off.
  const Shape shape{384, 96, 24};
  MachineParams message_clock{1.0, 0.0, 0.0};
  const double reference =
      alg1_time(shape, Grid3{16, 1, 1}, message_clock).total();
  for (const Grid3& grid : {Grid3{8, 2, 1}, Grid3{4, 2, 2}, Grid3{1, 16, 1},
                            Grid3{2, 2, 4}, Grid3{1, 1, 16}}) {
    EXPECT_DOUBLE_EQ(alg1_time(shape, grid, message_clock).total(), reference)
        << grid.p1 << "x" << grid.p2 << "x" << grid.p3;
  }
  EXPECT_DOUBLE_EQ(reference, 4.0);  // log2(16)
  // Ring collectives are different: rounds = (p1-1) + (p2-1) + (p3-1),
  // which *does* favour balanced grids.
  const auto ring_flat = alg1_time(shape, Grid3{16, 1, 1}, message_clock,
                                   coll::AllgatherAlgo::kRing,
                                   coll::ReduceScatterAlgo::kRing);
  const auto ring_cube = alg1_time(shape, Grid3{4, 2, 2}, message_clock,
                                   coll::AllgatherAlgo::kRing,
                                   coll::ReduceScatterAlgo::kRing);
  EXPECT_GT(ring_flat.total(), ring_cube.total());
}

TEST(TimeModel, SummaAndCannonEstimatesArePositiveAndOrdered) {
  const Shape shape{64, 64, 64};
  MachineParams params;
  const auto summa = summa_time(shape, 4, params);
  const auto cannon = cannon_time(shape, 4, params);
  EXPECT_GT(summa.total(), 0.0);
  EXPECT_GT(cannon.total(), 0.0);
  // Cannon moves slightly more words (the skew) than SUMMA's panels.
  EXPECT_GE(cannon.bandwidth, summa.bandwidth);
}

TEST(TimeModel, TrivialGridIsFree) {
  const auto t = alg1_time(Shape{8, 8, 8}, Grid3{1, 1, 1},
                           MachineParams{1.0, 1.0, 0.0});
  EXPECT_DOUBLE_EQ(t.latency, 0.0);
  EXPECT_DOUBLE_EQ(t.bandwidth, 0.0);
}

}  // namespace
}  // namespace camb::mm
