// Unit tests for the baseline algorithms: SUMMA, Cannon, and the naive
// broadcast algorithm — correctness, exact comm accounting, and their
// relation to the lower bound.
#include <gtest/gtest.h>

#include "matmul/runner.hpp"

namespace camb::mm {
namespace {

using camb::core::Shape;

const RunOptions kVerified = RunOptions::verified(VerifyMode::kReference);
const RunOptions kUnverified{};  // VerifyMode::kNone: no assembly

TEST(Summa, CorrectAcrossGridsAndShapes) {
  for (i64 g : {1, 2, 3, 4}) {
    for (const Shape& shape : {Shape{12, 12, 12}, Shape{13, 7, 9},
                               Shape{8, 20, 4}}) {
      const RunReport report = run_summa(SummaConfig{shape, g}, kVerified);
      EXPECT_LE(report.max_abs_error, 1e-10)
          << "g=" << g << " shape=(" << shape.n1 << "," << shape.n2 << ","
          << shape.n3 << ")";
      EXPECT_EQ(report.measured_critical_recv, report.predicted_words());
    }
  }
}

TEST(Summa, RespectsLowerBound) {
  for (i64 g : {2, 3, 4}) {
    const Shape shape{24, 24, 24};
    const RunReport report = run_summa(SummaConfig{shape, g}, kUnverified);
    EXPECT_GE(static_cast<double>(report.measured_critical_recv) + 1e-6,
              report.lower_bound_words)
        << "g=" << g;
  }
}

TEST(Summa, CommMatchesClassicalFormula) {
  // Divisible square case: each rank receives (1 - 1/g)(n1 n2 + n2 n3)/g.
  const Shape shape{24, 24, 24};
  const i64 g = 4;
  const RunReport report = run_summa(SummaConfig{shape, g}, kUnverified);
  const double expected =
      (1.0 - 1.0 / g) * (24.0 * 24 / g + 24.0 * 24 / g);
  EXPECT_DOUBLE_EQ(static_cast<double>(report.measured_critical_recv),
                   expected);
}

TEST(Summa, PipelinedBroadcastVariantCorrectAndSameWords) {
  // SUMMA with pipelined-ring panel broadcasts: identical word counts (the
  // variant choice is invisible to the bounds), correct result, and a
  // shorter scheduled critical path on a bandwidth-bound machine.
  const Shape shape{48, 48, 48};
  const i64 g = 4;
  const auto binomial = run_summa(SummaConfig{shape, g}, kVerified);
  SummaConfig ring_cfg{shape, g};
  ring_cfg.bcast = coll::BcastAlgo::kPipelinedRing;
  ring_cfg.bcast_segments = 4;
  const auto ring = run_summa(ring_cfg, kVerified);
  EXPECT_LE(ring.max_abs_error, 1e-10);
  EXPECT_EQ(ring.measured_critical_recv, binomial.measured_critical_recv);
  // Under the default unit-alpha/unit-beta clock the panels (hundreds of
  // words) are bandwidth-bound, so pipelining wins schedule time.
  EXPECT_LT(ring.simulated_time, binomial.simulated_time);
}

TEST(Cannon, CorrectAcrossGridsAndShapes) {
  for (i64 g : {1, 2, 3, 4}) {
    for (const Shape& shape : {Shape{12, 12, 12}, Shape{13, 7, 9},
                               Shape{6, 18, 10}}) {
      const RunReport report = run_cannon(CannonConfig{shape, g}, kVerified);
      EXPECT_LE(report.max_abs_error, 1e-10)
          << "g=" << g << " shape=(" << shape.n1 << "," << shape.n2 << ","
          << shape.n3 << ")";
      EXPECT_EQ(report.measured_critical_recv, report.predicted_words());
    }
  }
}

TEST(Cannon, PaysSkewOverhead) {
  // On a divisible square problem Cannon moves at least as much as SUMMA
  // (equal shifted volume plus the initial skew).
  const Shape shape{24, 24, 24};
  const i64 g = 4;
  const auto summa = run_summa(SummaConfig{shape, g}, kUnverified);
  const auto cannon = run_cannon(CannonConfig{shape, g}, kUnverified);
  EXPECT_GE(cannon.measured_critical_recv, summa.measured_critical_recv);
}

TEST(NaiveBcast, CorrectAndCounted) {
  for (i64 P : {1, 2, 5, 8}) {
    const Shape shape{12, 9, 7};
    const RunReport report =
        run_naive_bcast(NaiveBcastConfig{shape}, P, kVerified);
    EXPECT_LE(report.max_abs_error, 1e-10) << "P=" << P;
    EXPECT_EQ(report.measured_critical_recv, report.predicted_words());
  }
}

TEST(NaiveBcast, CommunicationDoesNotScaleWithP) {
  // The pathology the bound exposes: per-rank received words stay ~constant
  // (the full inputs) as P grows, while the optimal algorithm's shrink.
  const Shape shape{16, 16, 16};
  const auto p2 = run_naive_bcast(NaiveBcastConfig{shape}, 2, kUnverified);
  const auto p8 = run_naive_bcast(NaiveBcastConfig{shape}, 8, kUnverified);
  EXPECT_EQ(p2.measured_critical_recv, p8.measured_critical_recv);
  // And it is far above the bound at P = 8.
  EXPECT_GT(static_cast<double>(p8.measured_critical_recv),
            2 * p8.lower_bound_words);
}

TEST(Baselines, OptimalAlgorithmBeatsBaselinesInTheirWeakRegime) {
  // Strongly rectangular shape in the 1D regime: the optimal 1D grid
  // communicates only (1 - 1/P) nk words, far less than square-grid SUMMA.
  const Shape shape{64, 8, 8};  // m/n = 8 >= P = 4
  const auto optimal =
      run_grid3d(Grid3dConfig{shape, Grid3{4, 1, 1}}, kUnverified);
  // P = 4 too.
  const auto summa = run_summa(SummaConfig{shape, 2}, kUnverified);
  EXPECT_LT(optimal.measured_critical_recv, summa.measured_critical_recv);
  EXPECT_DOUBLE_EQ(static_cast<double>(optimal.measured_critical_recv),
                   optimal.lower_bound_words);
}

}  // namespace
}  // namespace camb::mm
