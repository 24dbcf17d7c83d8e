// The reference verifier: check_result's kReference product comes from the
// blocked kernel (gemm_pooled, rows sliced on the WorkerPool) and must be
// bit-identical to the naive camb::matmul_reference for every scalar, so
// every residual stays what the triple loop gave.  A NaN or inf in C must
// fail every verifier with residual +inf.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "gemm_shapes.hpp"
#include "matmul/freivalds.hpp"
#include "matmul/local_gemm.hpp"
#include "matmul/runner.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace camb::mm {
namespace {

using camb::core::Shape;

constexpr double kInf = std::numeric_limits<double>::infinity();

template <typename T>
bool same_bits(const Matrix<T>& x, const Matrix<T>& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<std::size_t>(x.size()) * sizeof(T)) == 0;
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// The awkward kernel shapes plus one with enough rows to be sliced on the
// pool; 200 rows cut into slices no micro-tile height divides.
std::vector<Shape> verify_shapes() {
  std::vector<Shape> shapes;
  for (const test::GemmShape& s : test::kAwkwardGemmShapes) {
    shapes.push_back(Shape{s.rows, s.inner, s.cols});
  }
  shapes.push_back(Shape{200, 150, 130});
  return shapes;
}

template <typename T>
void fill_inputs(const Shape& s, Matrix<T>& a, Matrix<T>& b) {
  a = Matrix<T>(s.n1, s.n2);
  b = Matrix<T>(s.n2, s.n3);
  a.fill_indexed(0, 0);
  b.fill_indexed(0, 0);
}

/// The residual check_result gave when its reference was the triple loop:
/// max |C - matmul_reference(A, B)| folded with std::max.
template <typename T>
double triple_loop_residual(const Matrix<T>& c, const Matrix<T>& a,
                            const Matrix<T>& b) {
  const Matrix<T> ref = camb::matmul_reference(a, b);
  double worst = 0.0;
  for (i64 idx = 0; idx < c.size(); ++idx) {
    worst = std::max(worst,
                     std::abs(ScalarTraits<T>::to_double(c.data()[idx]) -
                              ScalarTraits<T>::to_double(ref.data()[idx])));
  }
  return worst;
}

/// The correct product with every 7th entry moved by a varied amount.
template <typename T>
Matrix<T> perturbed(Matrix<T> c) {
  for (i64 idx = 3; idx < c.size(); idx += 7) {
    const double u = static_cast<double>(idx % 11 - 5) / 64.0;
    c.data()[idx] = c.data()[idx] + ScalarTraits<T>::from_unit(u);
  }
  return c;
}

template <typename T>
void expect_reference_product_bit_identical() {
  for (const Shape& s : verify_shapes()) {
    Matrix<T> a, b;
    fill_inputs(s, a, b);
    const Matrix<T> naive = camb::matmul_reference(a, b);
    EXPECT_TRUE(same_bits(gemm_pooled(a, b), naive))
        << ScalarTraits<T>::name << " " << s.n1 << "x" << s.n2 << "x" << s.n3;
    // The row-range entry on uneven cuts, whatever the pool's width.
    Matrix<T> pieces(s.n1, s.n3);
    const i64 cuts[] = {0, s.n1 / 5, s.n1 / 5 + 1, s.n1 / 2 + 3, s.n1};
    for (std::size_t k = 0; k + 1 < std::size(cuts); ++k) {
      const i64 begin = std::min(cuts[k], s.n1);
      const i64 end = std::max(begin, std::min(cuts[k + 1], s.n1));
      gemm_accumulate_rows(a, b, pieces, begin, end);
    }
    EXPECT_TRUE(same_bits(pieces, naive))
        << ScalarTraits<T>::name << " row ranges " << s.n1 << "x" << s.n2
        << "x" << s.n3;
  }
}

template <typename T>
void expect_residuals_unchanged() {
  for (const Shape& s : verify_shapes()) {
    Matrix<T> a, b;
    fill_inputs(s, a, b);
    const Matrix<T> good = camb::matmul_reference(a, b);
    for (const Matrix<T>& c : {good, perturbed(good)}) {
      const double want = triple_loop_residual(c, a, b);
      const double got = check_result(s, c, VerifyMode::kReference);
      EXPECT_TRUE(same_bits(want, got))
          << ScalarTraits<T>::name << " " << s.n1 << "x" << s.n2 << "x"
          << s.n3 << ": triple loop " << want << ", kernel " << got;
    }
  }
}

TEST(ReferenceProduct, BitIdenticalF64) {
  expect_reference_product_bit_identical<double>();
}
TEST(ReferenceProduct, BitIdenticalF32) {
  expect_reference_product_bit_identical<float>();
}
TEST(ReferenceProduct, BitIdenticalI64) {
  expect_reference_product_bit_identical<i64>();
}
TEST(ReferenceProduct, BitIdenticalKahan) {
  expect_reference_product_bit_identical<kahan>();
}

TEST(ReferenceResidual, UnchangedF64) { expect_residuals_unchanged<double>(); }
TEST(ReferenceResidual, UnchangedF32) { expect_residuals_unchanged<float>(); }
TEST(ReferenceResidual, UnchangedI64) { expect_residuals_unchanged<i64>(); }
TEST(ReferenceResidual, UnchangedKahan) {
  expect_residuals_unchanged<kahan>();
}

TEST(ReferenceResidual, ReferenceResultsMatchTheTripleLoop) {
  const Shape s{200, 150, 130};
  MatrixD a(s.n1, s.n2), b(s.n2, s.n3);
  a.fill_indexed(0, 0);
  b.fill_indexed(0, 0);
  EXPECT_TRUE(same_bits(reference_result(s), camb::matmul_reference(a, b)));
  a.fill_indexed_int(0, 0);
  b.fill_indexed_int(0, 0);
  EXPECT_TRUE(
      same_bits(reference_result_int(s), camb::matmul_reference(a, b)));
}

TEST(ReferenceResidual, ConcurrentCallersAgreeBitForBit) {
  // Two callers at once: one holds the WorkerPool, the other takes its
  // plain-thread fallback.  Both must give the serial bits.
  const Shape s{256, 192, 160};
  MatrixD a, b;
  fill_inputs(s, a, b);
  const MatrixD naive = camb::matmul_reference(a, b);
  const MatrixD c = perturbed(naive);
  const double want = triple_loop_residual(c, a, b);
  double residual[2] = {};
  bool product_same[2] = {};
  std::vector<std::thread> callers;
  for (int k = 0; k < 2; ++k) {
    callers.emplace_back([&, k] {
      residual[k] = check_result(s, c, VerifyMode::kReference);
      product_same[k] = same_bits(gemm_pooled(a, b), naive);
    });
  }
  for (std::thread& t : callers) t.join();
  for (int k = 0; k < 2; ++k) {
    EXPECT_TRUE(same_bits(residual[k], want)) << "caller " << k;
    EXPECT_TRUE(product_same[k]) << "caller " << k;
  }
}

// ---- Non-finite entries --------------------------------------------------

template <typename T>
void expect_non_finite_rejected() {
  const Shape s{8, 8, 8};
  Matrix<T> a, b;
  fill_inputs(s, a, b);
  const Matrix<T> good = gemm_pooled(a, b);
  const double tol = freivalds_default_tol<T>();
  ASSERT_LE(check_result(s, good, VerifyMode::kReference), tol);
  ASSERT_LE(check_result(s, good, VerifyMode::kFreivalds), tol);
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(), kInf,
                               -kInf};
  for (const double bad : bad_values) {
    Matrix<T> c = good;
    c(3, 5) = ScalarTraits<T>::from_unit(bad);
    const std::string what = std::string(ScalarTraits<T>::name) + " C(3,5)=" +
                             std::to_string(bad);
    Rng rng(0xF4E1);
    const double residuals[] = {
        check_result(s, c, VerifyMode::kReference),
        check_result(s, c, VerifyMode::kFreivalds),
        check_result(s, c, VerifyMode::kAuto),
        freivalds_residual<T>(a, b, c, /*trials=*/24, rng),
        c.max_abs_diff(good),
        good.max_abs_diff(c),
    };
    for (const double r : residuals) {
      EXPECT_EQ(r, kInf) << what;
      EXPECT_FALSE(r <= tol) << what;
    }
    Rng check_rng(0xF4E1);
    EXPECT_FALSE(freivalds_check<T>(a, b, c, /*trials=*/24, check_rng))
        << what;
    // Equal infinities are no mismatch; a NaN never equals itself.
    EXPECT_EQ(c.max_abs_diff(c), std::isnan(bad) ? kInf : 0.0) << what;
  }
}

TEST(NonFiniteVerify, RejectedF64) { expect_non_finite_rejected<double>(); }
TEST(NonFiniteVerify, RejectedF32) { expect_non_finite_rejected<float>(); }
TEST(NonFiniteVerify, RejectedKahan) { expect_non_finite_rejected<kahan>(); }

TEST(NonFiniteVerify, MaxResidualKeepsFiniteBits) {
  EXPECT_EQ(max_residual(0.5, 0.25), 0.5);
  EXPECT_EQ(max_residual(0.25, 0.5), 0.5);
  EXPECT_EQ(max_residual(0.5, kInf), kInf);
  EXPECT_EQ(max_residual(0.5, std::numeric_limits<double>::quiet_NaN()),
            kInf);
  EXPECT_EQ(max_residual(kInf, 0.5), kInf);
}

}  // namespace
}  // namespace camb::mm
