// Unit tests for matmul/freivalds.hpp — probabilistic product verification.
#include "matmul/freivalds.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "matmul/local_gemm.hpp"
#include "matmul/runner.hpp"
#include "util/error.hpp"

namespace camb::mm {
namespace {

using camb::core::Shape;

// ---- Oracle: the verifier as one serial pass per trial ------------------
// Each trial draws its x, forms y = Bx, and scans the rows of A and C.  The
// library's one-pass, pool-parallel kernel must reproduce its residual bit
// for bit.

template <typename T>
double oracle_trial(const Matrix<T>& a, const Matrix<T>& b,
                    const Matrix<T>& c, Rng& rng) {
  const i64 n1 = a.rows(), n2 = a.cols(), n3 = b.cols();
  std::vector<double> x(static_cast<std::size_t>(n3));
  for (auto& v : x) v = (rng() & 1) ? 1.0 : 0.0;
  std::vector<double> y(static_cast<std::size_t>(n2), 0.0);
  for (i64 i = 0; i < n2; ++i) {
    double acc = 0.0;
    for (i64 j = 0; j < n3; ++j) {
      acc += ScalarTraits<T>::to_double(b(i, j)) *
             x[static_cast<std::size_t>(j)];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
  double worst = 0.0;
  double scale = 1.0;
  for (i64 i = 0; i < n1; ++i) {
    double z = 0.0, z_mag = 0.0;
    for (i64 j = 0; j < n2; ++j) {
      const double av = ScalarTraits<T>::to_double(a(i, j));
      z += av * y[static_cast<std::size_t>(j)];
      z_mag += std::abs(av * y[static_cast<std::size_t>(j)]);
    }
    double w = 0.0;
    for (i64 j = 0; j < n3; ++j) {
      w += ScalarTraits<T>::to_double(c(i, j)) *
           x[static_cast<std::size_t>(j)];
    }
    worst = std::max(worst, std::abs(z - w));
    scale = std::max(scale, z_mag);
  }
  return worst / scale;
}

template <typename T>
double oracle_residual(const Matrix<T>& a, const Matrix<T>& b,
                       const Matrix<T>& c, int trials, Rng& rng) {
  double worst = 0.0;
  for (int t = 0; t < trials; ++t) {
    worst = std::max(worst, oracle_trial<T>(a, b, c, rng));
  }
  return worst;
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// 1x1x1 and 1xnx1 are the degenerate edges; 97x61x35 has row counts that
// no pool width divides; 256^3 is above the parallel floor, so the kernel
// splits its rows over the WorkerPool.
constexpr std::array<std::array<i64, 3>, 4> kOracleShapes{
    {{1, 1, 1}, {1, 53, 1}, {97, 61, 35}, {256, 256, 256}}};
constexpr std::array<int, 4> kOracleTrials{1, 7, 24, 25};

template <typename T>
void expect_matches_oracle() {
  for (const auto& [n1, n2, n3] : kOracleShapes) {
    Matrix<T> a(n1, n2), b(n2, n3);
    a.fill_indexed(0, 0);
    b.fill_indexed(0, 0);
    const Matrix<T> good = camb::matmul_reference(a, b);
    Matrix<T> bad = good;
    bad(n1 / 2, n3 / 2) += static_cast<T>(1);
    for (const Matrix<T>* c : std::array<const Matrix<T>*, 2>{&good, &bad}) {
      for (int trials : kOracleTrials) {
        const std::uint64_t seed = static_cast<std::uint64_t>(trials) * 977 +
                                   static_cast<std::uint64_t>(n2);
        Rng oracle_rng(seed), rng(seed), check_rng(seed);
        const double want = oracle_residual<T>(a, b, *c, trials, oracle_rng);
        const double got = freivalds_residual<T>(a, b, *c, trials, rng);
        EXPECT_TRUE(same_bits(want, got))
            << n1 << "x" << n2 << "x" << n3 << " trials=" << trials
            << (c == &bad ? " corrupted" : " correct") << ": oracle " << want
            << " kernel " << got;
        EXPECT_EQ(rng(), oracle_rng()) << "draw count differs";
        EXPECT_EQ(freivalds_check<T>(a, b, *c, trials, check_rng),
                  got <= freivalds_default_tol<T>());
      }
    }
  }
}

TEST(FreivaldsOracle, BitIdenticalF64) { expect_matches_oracle<double>(); }
TEST(FreivaldsOracle, BitIdenticalF32) { expect_matches_oracle<float>(); }
TEST(FreivaldsOracle, BitIdenticalI64) { expect_matches_oracle<i64>(); }
TEST(FreivaldsOracle, BitIdenticalKahan) { expect_matches_oracle<kahan>(); }

TEST(FreivaldsOracle, ConcurrentCallersAgreeBitForBit) {
  // Two callers at once: one holds the WorkerPool, the other takes its
  // plain-thread fallback.  Both must return the oracle's bits.
  const i64 n = 256;
  MatrixD a(n, n), b(n, n);
  a.fill_indexed(0, 0);
  b.fill_indexed(0, 0);
  MatrixD c = gemm(a, b);
  c(3, 5) += 1e-6;
  Rng oracle_rng(11);
  const double want = oracle_residual(a, b, c, 24, oracle_rng);
  std::array<double, 2> got{};
  std::vector<std::thread> callers;
  for (std::size_t k = 0; k < got.size(); ++k) {
    callers.emplace_back([&, k] {
      Rng rng(11);
      got[k] = freivalds_residual(a, b, c, 24, rng);
    });
  }
  for (std::thread& t : callers) t.join();
  for (double g : got) EXPECT_TRUE(same_bits(want, g)) << want << " vs " << g;
}

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

TEST(Freivalds, ResidualValidatesItsInputs) {
  Rng rng(6);
  MatrixD a(4, 3), b(3, 5);
  EXPECT_THROW(freivalds_residual(a, b, MatrixD(3, 5), 4, rng), Error);
  EXPECT_THROW(freivalds_residual(a, b, MatrixD(4, 4), 4, rng), Error);
  EXPECT_THROW(freivalds_residual(a, MatrixD(2, 5), MatrixD(4, 5), 4, rng),
               Error);
  // Zero trials would otherwise report residual 0, a silent pass.
  EXPECT_THROW(freivalds_residual(a, b, MatrixD(4, 5), 0, rng), Error);
  EXPECT_THROW(freivalds_check(a, b, MatrixD(4, 5), 0, rng), Error);
}

TEST(Freivalds, CheckResultRejectsAWronglyShapedProduct) {
  const Shape shape{6, 5, 4};
  EXPECT_THROW(check_result(shape, MatrixD(6, 3), VerifyMode::kFreivalds),
               Error);
  EXPECT_THROW(check_result(shape, MatrixD(5, 4), VerifyMode::kFreivalds),
               Error);
  EXPECT_THROW(check_result(shape, MatrixD(5, 4), VerifyMode::kReference),
               Error);
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
