// Integration tests: every algorithm executed end-to-end on the simulated
// machine across a sweep of shapes and grids, asserting simultaneously
//  (1) numerical correctness against the serial reference,
//  (2) exact agreement between executed and predicted communication,
//  (3) the Theorem 3 lower bound is respected,
//  (4) Algorithm 1 on the §5.2 grid attains the bound exactly.
#include <gtest/gtest.h>

#include <tuple>

#include "core/cost_eq3.hpp"
#include "matmul/runner.hpp"

namespace camb::mm {
namespace {

using camb::core::Shape;

const RunOptions kVerified = RunOptions::verified(VerifyMode::kReference);
const RunOptions kUnverified{};  // VerifyMode::kNone: no assembly

// ---------------------------------------------------------------------------
// Algorithm 1 across every factor-triple grid of several machine sizes.
// ---------------------------------------------------------------------------

class Grid3dEveryGrid : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(Grid3dEveryGrid, CorrectCountedAndBounded) {
  const auto [p_index, shape_index] = GetParam();
  const i64 machine_sizes[] = {2, 4, 6, 8, 12};
  const Shape shapes[] = {Shape{16, 12, 8}, Shape{13, 9, 5}, Shape{6, 24, 6}};
  const i64 P = machine_sizes[p_index];
  const Shape shape = shapes[shape_index];
  for (const Grid3& grid : camb::core::all_grids(P)) {
    Grid3dConfig cfg{shape, grid};
    const RunReport report = run_grid3d(cfg, kVerified);
    EXPECT_LE(report.max_abs_error, 1e-10)
        << "grid=" << grid.p1 << "x" << grid.p2 << "x" << grid.p3;
    EXPECT_EQ(report.measured_critical_recv, report.predicted_words())
        << "grid=" << grid.p1 << "x" << grid.p2 << "x" << grid.p3;
    EXPECT_GE(static_cast<double>(report.measured_critical_recv) + 1e-6,
              report.lower_bound_words);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Grid3dEveryGrid,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 3)));

// ---------------------------------------------------------------------------
// Executed tightness: the paper's central claim, on the machine.
// ---------------------------------------------------------------------------

struct TightRun {
  Shape shape;
  Grid3 grid;
};

class ExecutedTightness : public ::testing::TestWithParam<TightRun> {};

TEST_P(ExecutedTightness, MeasuredCommEqualsTheorem3) {
  const auto& tr = GetParam();
  ASSERT_TRUE(camb::core::grid_divides(tr.shape, tr.grid));
  Grid3dConfig cfg{tr.shape, tr.grid};
  const RunReport report = run_grid3d(cfg, kVerified);
  EXPECT_LE(report.max_abs_error, 1e-10);
  // Equality, not just >=: the executed words match the bound exactly (up to
  // the fp rounding of pow() in the bound's 2/3-power evaluation).
  EXPECT_NEAR(static_cast<double>(report.measured_critical_recv),
              report.lower_bound_words, 1e-9 * report.lower_bound_words);
  // And they equal the closed-form eq. 3 evaluation.
  EXPECT_EQ(report.measured_critical_recv,
            camb::core::alg1_cost_words_exact(tr.shape, tr.grid));
}

// Scaled-down paper shape (384, 96, 24): aspect ratios 16:4:1 as in Figure 2,
// m/n = 4, mn/k^2 = 64.  Optimal grids per §5.2.
INSTANTIATE_TEST_SUITE_P(
    ScaledPaperShape, ExecutedTightness,
    ::testing::Values(TightRun{Shape{384, 96, 24}, Grid3{2, 1, 1}},   // P=2, 1D
                      TightRun{Shape{384, 96, 24}, Grid3{4, 1, 1}},   // P=4, 1D/2D boundary
                      TightRun{Shape{384, 96, 24}, Grid3{8, 2, 1}},   // P=16, 2D
                      TightRun{Shape{1536, 384, 96}, Grid3{32, 8, 2}},  // P=512, 3D
                      TightRun{Shape{384, 96, 24}, Grid3{16, 4, 1}},  // P=64, 2D/3D boundary
                      TightRun{Shape{96, 96, 96}, Grid3{2, 2, 2}},    // square 3D
                      TightRun{Shape{96, 96, 96}, Grid3{4, 4, 4}},    // square 3D
                      TightRun{Shape{24, 96, 384}, Grid3{1, 1, 4}},   // permuted 1D
                      TightRun{Shape{96, 24, 384}, Grid3{2, 1, 8}}));  // permuted 2D

// ---------------------------------------------------------------------------
// Cross-algorithm comparison on a common problem.
// ---------------------------------------------------------------------------

TEST(CrossAlgorithm, AllProduceTheSameResult) {
  const Shape shape{24, 24, 24};
  const auto g3 = run_grid3d(Grid3dConfig{shape, Grid3{2, 2, 1}}, kVerified);
  const auto su = run_summa(SummaConfig{shape, 2}, kVerified);
  const auto ca = run_cannon(CannonConfig{shape, 2}, kVerified);
  const auto nb = run_naive_bcast(NaiveBcastConfig{shape}, 4, kVerified);
  for (const auto* report : {&g3, &su, &ca, &nb}) {
    EXPECT_LE(report->max_abs_error, 1e-10);
  }
}

TEST(CrossAlgorithm, OptimalNeverLosesOnItsOwnTurf) {
  // On each regime's representative problem, Algorithm 1 with the best
  // integer grid communicates no more than any baseline at equal P.
  struct Case {
    Shape shape;
    i64 P;
    i64 g2d;  // 2D grid edge for the baselines (g2d^2 == P)
  };
  for (const auto& c : {Case{Shape{64, 16, 16}, 4, 2},
                        Case{Shape{32, 32, 32}, 16, 4},
                        Case{Shape{36, 24, 12}, 9, 3}}) {
    const Grid3 grid = camb::core::best_integer_grid(c.shape, c.P);
    const auto optimal = run_grid3d(Grid3dConfig{c.shape, grid}, kUnverified);
    const auto summa = run_summa(SummaConfig{c.shape, c.g2d}, kUnverified);
    const auto cannon = run_cannon(CannonConfig{c.shape, c.g2d}, kUnverified);
    EXPECT_LE(optimal.measured_critical_recv, summa.measured_critical_recv)
        << "shape=(" << c.shape.n1 << "," << c.shape.n2 << "," << c.shape.n3
        << ")";
    EXPECT_LE(optimal.measured_critical_recv, cannon.measured_critical_recv);
  }
}

TEST(CrossAlgorithm, TotalVolumeConservation) {
  // Sum over ranks of sent words equals sum of received words (no word is
  // created or destroyed by the network).
  const Shape shape{18, 12, 8};
  const Grid3 grid{3, 2, 2};
  camb::Machine machine(static_cast<int>(grid.total()));
  Grid3dConfig cfg{shape, grid};
  machine.run([&](camb::RankCtx& ctx) { (void)grid3d_rank(ctx, cfg); });
  i64 sent = 0, received = 0;
  for (int r = 0; r < machine.nprocs(); ++r) {
    sent += machine.stats().rank_total(r).words_sent();
    received += machine.stats().rank_total(r).words_received();
  }
  EXPECT_EQ(sent, received);
}

// ---------------------------------------------------------------------------
// Medium-scale executed run (P = 64) — the 3D regime exercised for real.
// ---------------------------------------------------------------------------

TEST(MediumScale, SixtyFourRanksCubicGrid) {
  const Shape shape{64, 64, 64};
  const Grid3 grid{4, 4, 4};
  Grid3dConfig cfg{shape, grid};
  const RunReport report = run_grid3d(cfg, kVerified);
  EXPECT_LE(report.max_abs_error, 1e-10);
  EXPECT_EQ(report.measured_critical_recv, report.predicted_words());
  // Square shape, P = 64 cubic grid: exact optimum.
  EXPECT_NEAR(static_cast<double>(report.measured_critical_recv),
              report.lower_bound_words, 1e-9 * report.lower_bound_words);
}

}  // namespace
}  // namespace camb::mm
