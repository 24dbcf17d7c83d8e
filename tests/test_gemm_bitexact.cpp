// The register-blocked gemm_accumulate must be BIT-identical to the plain
// tiled reference kernel on every shape: both sum each output element's
// products in ascending k, and at the default target arch the compiler may
// not contract mul+add into FMA, so identical addition order means identical
// bits.  The golden equivalence sweep (and every cross-algorithm
// bit-comparison in the suite) leans on this property; this test probes it
// directly on the shapes most likely to break a blocked kernel.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gemm_shapes.hpp"
#include "matmul/local_gemm.hpp"
#include "util/matrix.hpp"

namespace camb::mm {
namespace {

using test::kAwkwardGemmShapes;
using Shape = test::GemmShape;

// Deterministic sign-varied fill so additions genuinely round (an all-ones
// fill would hide order dependence).  Distinct global origins per matrix
// keep A, B, and C decorrelated.
void fill(MatrixD& m, i64 salt) { m.fill_indexed(salt * 1009, salt * 2003); }

bool bits_equal(const MatrixD& x, const MatrixD& y) {
  return std::memcmp(x.data(), y.data(),
                     static_cast<std::size_t>(x.size()) * sizeof(double)) == 0;
}

TEST(GemmBitExact, MatchesReferenceOnAwkwardShapes) {
  for (const Shape& s : kAwkwardGemmShapes) {
    MatrixD a(s.rows, s.inner), b(s.inner, s.cols);
    fill(a, 1);
    fill(b, 2);
    MatrixD c_ref(s.rows, s.cols), c_blk(s.rows, s.cols);
    // Non-zero C so the accumulate path (load C, add, store C) is exercised.
    fill(c_ref, 3);
    fill(c_blk, 3);
    gemm_accumulate_reference(a, b, c_ref);
    gemm_accumulate(a, b, c_blk);
    EXPECT_TRUE(bits_equal(c_ref, c_blk))
        << "blocked kernel diverged from reference at shape " << s.rows << "x"
        << s.inner << "x" << s.cols;
  }
}

TEST(GemmBitExact, RepeatedAccumulationStaysExact) {
  // Three accumulations into the same C — the simulator's per-rank usage
  // pattern (one accumulate per k-step of the outer algorithm).
  MatrixD a(kGemmMr * 2 + 1, 37), b(37, kGemmNr * 3 + 5);
  fill(a, 7);
  fill(b, 11);
  MatrixD c_ref(a.rows(), b.cols()), c_blk(a.rows(), b.cols());
  for (int rep = 0; rep < 3; ++rep) {
    gemm_accumulate_reference(a, b, c_ref);
    gemm_accumulate(a, b, c_blk);
  }
  EXPECT_TRUE(bits_equal(c_ref, c_blk));
}

TEST(GemmBitExact, GemmAllocatesAndMatches) {
  MatrixD a(31, 29), b(29, 41);
  fill(a, 13);
  fill(b, 17);
  MatrixD c_ref(31, 41);
  gemm_accumulate_reference(a, b, c_ref);
  const MatrixD c = gemm(a, b);
  EXPECT_TRUE(bits_equal(c_ref, c));
}

}  // namespace
}  // namespace camb::mm
