// Randomized cross-algorithm stress test: every registered algorithm on
// randomized shapes and machine sizes, all four invariants at once —
// correctness, exact comm accounting, bound respected, volume conservation.
#include <gtest/gtest.h>

#include "matmul/algorithm_registry.hpp"
#include "util/rng.hpp"

namespace camb::mm {
namespace {

using camb::core::Shape;

const RunOptions kVerified = RunOptions::verified(VerifyMode::kReference);
const RunOptions kUnverified{};  // VerifyMode::kNone: no assembly

class RandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomSweep, EveryAlgorithmEveryInvariant) {
  camb::Rng rng(0x57E55, static_cast<std::uint64_t>(GetParam()));
  const Shape shape{rng.range(1, 40), rng.range(1, 40), rng.range(1, 40)};
  // Machine sizes that give every algorithm a chance to be applicable.
  const i64 candidates[] = {1, 2, 3, 4, 6, 8, 9, 12, 16, 25};
  const i64 P = candidates[rng.below(10)];
  for (const auto& algorithm : algorithm_registry()) {
    if (!algorithm.supports(shape, P)) continue;
    const RunReport report = algorithm.run_opts(shape, P, kVerified);
    EXPECT_LE(report.max_abs_error, 1e-9)
        << algorithm.name << " shape=(" << shape.n1 << "," << shape.n2 << ","
        << shape.n3 << ") P=" << P;
    EXPECT_EQ(report.measured_critical_recv, report.predicted_words())
        << algorithm.name << " shape=(" << shape.n1 << "," << shape.n2 << ","
        << shape.n3 << ") P=" << P;
    EXPECT_GE(static_cast<double>(report.measured_critical_recv) + 1e-6,
              report.lower_bound_words)
        << algorithm.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSweep, ::testing::Range(0, 80));

TEST(Registry, NamesAreUniqueAndLookupWorks) {
  const auto& algorithms = algorithm_registry();
  ASSERT_GE(algorithms.size(), 7u);
  for (std::size_t i = 0; i < algorithms.size(); ++i) {
    for (std::size_t j = i + 1; j < algorithms.size(); ++j) {
      EXPECT_NE(algorithms[i].name, algorithms[j].name);
    }
    EXPECT_EQ(&algorithm_by_name(algorithms[i].name), &algorithms[i]);
  }
  EXPECT_THROW(algorithm_by_name("does_not_exist"), Error);
}

TEST(Registry, SupportPredicatesMatchReality) {
  const Shape shape{12, 12, 12};
  EXPECT_TRUE(algorithm_by_name("grid3d_optimal").supports(shape, 7));
  EXPECT_TRUE(algorithm_by_name("summa").supports(shape, 9));
  EXPECT_FALSE(algorithm_by_name("summa").supports(shape, 8));
  EXPECT_TRUE(algorithm_by_name("alg25d").supports(shape, 8));    // 2x2x2
  EXPECT_FALSE(algorithm_by_name("alg25d").supports(shape, 6));
}

TEST(Registry, BandwidthOptimalFlagsAttainTheBoundOnOptimalConfigs) {
  // On a divisible optimal configuration, every bandwidth_optimal algorithm
  // measures exactly the bound; the others exceed it.
  const Shape shape{96, 96, 96};
  const i64 P = 64;
  const auto bound =
      camb::core::memory_independent_bound(shape, static_cast<double>(P));
  for (const auto& algorithm : algorithm_registry()) {
    if (!algorithm.supports(shape, P)) continue;
    const RunReport report = algorithm.run_opts(shape, P, kUnverified);
    if (algorithm.bandwidth_optimal) {
      EXPECT_NEAR(static_cast<double>(report.measured_critical_recv),
                  bound.words, 1e-9 * bound.words)
          << algorithm.name;
    } else {
      EXPECT_GT(static_cast<double>(report.measured_critical_recv),
                bound.words)
          << algorithm.name;
    }
  }
}

TEST(AgarwalVariant, SameBandwidthAsAlg1MoreMessages) {
  // The §5.1 comparison, measured end to end: identical received words,
  // strictly more messages for p2 > 2 (p2 - 1 vs ceil(log2 p2) rounds).
  const Shape shape{24, 32, 16};
  const camb::core::Grid3 grid{2, 8, 2};
  const auto alg1 = run_grid3d(Grid3dConfig{shape, grid}, kVerified);
  const auto agarwal =
      run_grid3d_agarwal(Grid3dAgarwalConfig{shape, grid}, kVerified);
  EXPECT_LE(alg1.max_abs_error, 1e-10);
  EXPECT_LE(agarwal.max_abs_error, 1e-10);
  EXPECT_EQ(agarwal.measured_critical_recv, alg1.measured_critical_recv);
  EXPECT_GT(agarwal.measured_critical_messages,
            alg1.measured_critical_messages);
}

TEST(AgarwalVariant, BruckAlltoallTradesBandwidthForLatency) {
  const Shape shape{24, 32, 16};
  const camb::core::Grid3 grid{2, 8, 2};
  Grid3dAgarwalConfig pairwise{shape, grid};
  Grid3dAgarwalConfig bruck{shape, grid, coll::AllgatherAlgo::kAuto,
                            coll::AlltoallAlgo::kBruck};
  const auto pw = run_grid3d_agarwal(pairwise, kVerified);
  const auto br = run_grid3d_agarwal(bruck, kVerified);
  EXPECT_LE(br.max_abs_error, 1e-10);
  EXPECT_EQ(pw.measured_critical_recv, pw.predicted_words());
  EXPECT_EQ(br.measured_critical_recv, br.predicted_words());
  EXPECT_GT(br.measured_critical_recv, pw.measured_critical_recv);
  EXPECT_LT(br.measured_critical_messages, pw.measured_critical_messages);
}

}  // namespace
}  // namespace camb::mm
