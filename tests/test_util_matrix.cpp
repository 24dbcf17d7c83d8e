// Unit tests for util/matrix.hpp and the serial reference multiplication.
#include "util/matrix.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "util/error.hpp"

namespace camb {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  MatrixD m(3, 4, 1.5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  EXPECT_DOUBLE_EQ(m(2, 3), 1.5);
  m(1, 2) = -2.0;
  EXPECT_DOUBLE_EQ(m(1, 2), -2.0);
}

TEST(Matrix, BlockRoundTrip) {
  MatrixD m(5, 6);
  m.fill_indexed(0, 0);
  MatrixD blk = m.block(1, 2, 3, 4);
  EXPECT_EQ(blk.rows(), 3);
  EXPECT_EQ(blk.cols(), 4);
  for (i64 i = 0; i < 3; ++i) {
    for (i64 j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(blk(i, j), m(1 + i, 2 + j));
  }
  MatrixD target(5, 6, 0.0);
  target.set_block(1, 2, blk);
  EXPECT_DOUBLE_EQ(target(1, 2), m(1, 2));
  EXPECT_DOUBLE_EQ(target(3, 5), m(3, 5));
  EXPECT_DOUBLE_EQ(target(0, 0), 0.0);
}

TEST(Matrix, BlockOutOfRangeThrows) {
  MatrixD m(3, 3);
  EXPECT_THROW(m.block(2, 2, 2, 2), Error);
  MatrixD src(2, 2);
  EXPECT_THROW(m.set_block(2, 2, src), Error);
}

TEST(Matrix, AddBlockAccumulates) {
  MatrixD m(2, 2, 1.0);
  MatrixD inc(2, 2, 0.5);
  m.add_block(0, 0, inc);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m(1, 1), 1.5);
}

TEST(Matrix, FillIndexedIsPositionDeterministic) {
  MatrixD a(4, 4), b(4, 4);
  a.fill_indexed(0, 0);
  b.fill_indexed(0, 0);
  EXPECT_TRUE(a == b);
  // A shifted fill matches the corresponding region of a larger fill.
  MatrixD big(8, 8);
  big.fill_indexed(0, 0);
  MatrixD shifted(4, 4);
  shifted.fill_indexed(2, 3);
  for (i64 i = 0; i < 4; ++i) {
    for (i64 j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(shifted(i, j), big(2 + i, 3 + j));
    }
  }
}

TEST(Matrix, RowRangeFillsCompose) {
  // Filling disjoint row ranges in any order reproduces the whole-matrix
  // fill, for both patterns and at a global offset.
  MatrixD whole(7, 5), whole_int(7, 5), parts(7, 5), parts_int(7, 5);
  whole.fill_indexed(4, 9);
  whole_int.fill_indexed_int(4, 9);
  for (const auto& [begin, end] : {std::pair<i64, i64>{5, 7}, {0, 2}, {2, 5}}) {
    parts.fill_indexed_rows(4, 9, begin, end);
    parts_int.fill_indexed_int_rows(4, 9, begin, end);
  }
  EXPECT_EQ(parts, whole);
  EXPECT_EQ(parts_int, whole_int);
  EXPECT_THROW(parts.fill_indexed_rows(0, 0, 3, 8), Error);
  EXPECT_THROW(parts.fill_indexed_int_rows(0, 0, 4, 3), Error);
}

TEST(Matrix, FillIndexedValuesBounded) {
  MatrixD m(16, 16);
  m.fill_indexed(0, 0);
  for (i64 i = 0; i < 16; ++i) {
    for (i64 j = 0; j < 16; ++j) {
      EXPECT_GE(m(i, j), -0.5);
      EXPECT_LT(m(i, j), 0.5);
    }
  }
}

TEST(Matrix, MaxAbsDiff) {
  MatrixD a(2, 2, 1.0), b(2, 2, 1.0);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
  b(1, 0) = 3.0;
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 2.0);
}

TEST(MatmulReference, KnownProduct) {
  MatrixD a(2, 3), b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  double av[] = {1, 2, 3, 4, 5, 6}, bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  MatrixD c = matmul_reference(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(MatmulReference, IdentityIsNeutral) {
  MatrixD a(3, 3);
  a.fill_indexed(0, 0);
  MatrixD eye(3, 3);
  for (i64 i = 0; i < 3; ++i) eye(i, i) = 1.0;
  EXPECT_LE(matmul_reference(a, eye).max_abs_diff(a), 0.0);
  EXPECT_LE(matmul_reference(eye, a).max_abs_diff(a), 0.0);
}

TEST(MatmulReference, ShapeMismatchThrows) {
  MatrixD a(2, 3), b(4, 2);
  EXPECT_THROW(matmul_reference(a, b), Error);
}

TEST(Rng, DeterministicStreams) {
  Rng r1(7, 0), r2(7, 0), r3(7, 1);
  EXPECT_EQ(r1(), r2());
  EXPECT_NE(r1(), r3());  // different streams diverge
}

TEST(Rng, UniformInRange) {
  Rng rng(123);
  for (int t = 0; t < 1000; ++t) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int t = 0; t < 2000; ++t) {
    const auto v = rng.range(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

}  // namespace
}  // namespace camb
