// Unit tests for matmul/freivalds.hpp — probabilistic product verification.
#include "matmul/freivalds.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "matmul/local_gemm.hpp"
#include "matmul/runner.hpp"
#include "util/error.hpp"

namespace camb::mm {
namespace {

using camb::core::Shape;

TEST(Freivalds, AcceptsCorrectProducts) {
  Rng rng(1);
  for (const auto& [r, k, c] :
       {std::array<i64, 3>{1, 1, 1}, {5, 7, 3}, {32, 16, 64}, {100, 3, 100}}) {
    MatrixD a(r, k), b(k, c);
    a.fill_indexed(0, 0);
    b.fill_indexed(9, 9);
    const MatrixD prod = gemm(a, b);
    EXPECT_TRUE(freivalds_check(a, b, prod, 16, rng))
        << r << "x" << k << "x" << c;
  }
}

TEST(Freivalds, RejectsSingleEntryCorruption) {
  Rng rng(2);
  MatrixD a(24, 24), b(24, 24);
  a.fill_indexed(0, 0);
  b.fill_indexed(5, 5);
  MatrixD bad = gemm(a, b);
  bad(11, 7) += 1e-3;
  // One trial misses a single corrupted entry iff x[7] = 0 (prob 1/2);
  // 32 trials make a false accept essentially impossible.
  EXPECT_FALSE(freivalds_check(a, b, bad, 32, rng));
}

TEST(Freivalds, RejectsTransposedResult) {
  Rng rng(3);
  MatrixD a(16, 16), b(16, 16);
  a.fill_indexed(0, 0);
  b.fill_indexed(3, 1);
  const MatrixD good = gemm(a, b);
  MatrixD transposed(16, 16);
  for (i64 i = 0; i < 16; ++i) {
    for (i64 j = 0; j < 16; ++j) transposed(i, j) = good(j, i);
  }
  EXPECT_FALSE(freivalds_check(a, b, transposed, 32, rng));
}

TEST(Freivalds, ResidualIsTinyForCorrectAndLargeForWrong) {
  Rng rng(4);
  MatrixD a(20, 20), b(20, 20);
  a.fill_indexed(0, 0);
  b.fill_indexed(2, 8);
  const MatrixD good = gemm(a, b);
  EXPECT_LT(freivalds_residual(a, b, good, 8, rng), 1e-12);
  MatrixD bad = good;
  bad(0, 0) += 1.0;
  EXPECT_GT(freivalds_residual(a, b, bad, 32, rng), 1e-6);
}

TEST(Freivalds, ShapeChecks) {
  Rng rng(5);
  MatrixD a(3, 4), b(5, 3), c(3, 3);
  EXPECT_THROW(freivalds_check(a, b, c, 4, rng), Error);
}

TEST(Freivalds, RunnerAutoModeUsesItForLargeShapes) {
  // A shape above the auto threshold still gets verified (via Freivalds);
  // the report carries a residual, not NaN.
  const Shape shape{512, 512, 512};  // 134M flops > auto threshold
  const auto report = run_grid3d(
      Grid3dConfig{shape, camb::core::Grid3{4, 4, 4}},
      RunOptions::verified(VerifyMode::kAuto));
  EXPECT_TRUE(report.verified);
  EXPECT_FALSE(std::isnan(report.max_abs_error));
  EXPECT_LT(report.max_abs_error, 1e-9);
}

TEST(Freivalds, RunnerReferenceAndFreivaldsAgreeOnSmallShapes) {
  const Shape shape{24, 24, 24};
  const auto ref = run_grid3d(
      Grid3dConfig{shape, camb::core::Grid3{2, 2, 2}},
      RunOptions::verified(VerifyMode::kReference));
  const auto fre = run_grid3d(
      Grid3dConfig{shape, camb::core::Grid3{2, 2, 2}},
      RunOptions::verified(VerifyMode::kFreivalds));
  EXPECT_LT(ref.max_abs_error, 1e-10);
  EXPECT_LT(fre.max_abs_error, 1e-10);
}

}  // namespace
}  // namespace camb::mm
