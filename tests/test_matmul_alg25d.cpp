// Unit tests for matmul/alg25d.hpp — the 2.5D replication algorithm:
// correctness, exact comm accounting, the memory-for-communication
// trade-off, and its relation to Algorithm 1 and the lower bound.
#include "matmul/alg25d.hpp"

#include <gtest/gtest.h>

#include "matmul/runner.hpp"

namespace camb::mm {
namespace {

using camb::core::Shape;

const RunOptions kVerified = RunOptions::verified(VerifyMode::kReference);
const RunOptions kUnverified{};  // VerifyMode::kNone: no assembly

void expect_correct_and_counted(const Shape& shape, i64 g, i64 c) {
  const RunReport report = run_alg25d(Alg25dConfig{shape, g, c}, kVerified);
  EXPECT_LE(report.max_abs_error, 1e-10)
      << "shape=(" << shape.n1 << "," << shape.n2 << "," << shape.n3
      << ") g=" << g << " c=" << c;
  EXPECT_EQ(report.measured_critical_recv, report.predicted_words())
      << "g=" << g << " c=" << c;
  EXPECT_GE(static_cast<double>(report.measured_critical_recv) + 1e-6,
            report.lower_bound_words);
}

TEST(Alg25d, SingleLayerIsCannon) {
  // c = 1 degenerates to Cannon: same result, same words as cannon_rank.
  const Shape shape{12, 12, 12};
  const auto flat = run_alg25d(Alg25dConfig{shape, 3, 1}, kVerified);
  const auto cannon = run_cannon(CannonConfig{shape, 3}, kVerified);
  EXPECT_LE(flat.max_abs_error, 1e-10);
  EXPECT_EQ(flat.measured_critical_recv, cannon.measured_critical_recv);
}

TEST(Alg25d, CorrectAcrossGridsAndShapes) {
  expect_correct_and_counted(Shape{8, 8, 8}, 2, 2);
  expect_correct_and_counted(Shape{12, 12, 12}, 4, 2);
  expect_correct_and_counted(Shape{16, 8, 12}, 4, 4);
  expect_correct_and_counted(Shape{13, 9, 7}, 2, 2);   // non-divisible dims
  expect_correct_and_counted(Shape{10, 20, 30}, 6, 3); // rectangular
}

TEST(Alg25d, TrivialMachine) {
  expect_correct_and_counted(Shape{6, 5, 4}, 1, 1);
}

TEST(Alg25d, RejectsBadConfigs) {
  camb::Machine machine(8);
  EXPECT_THROW(machine.run([&](camb::RankCtx& ctx) {
                 (void)alg25d_rank(ctx, Alg25dConfig{Shape{8, 8, 8}, 4, 3});
               }),
               Error);  // c does not divide g (and 4*4*3 != 8)
}

TEST(Alg25d, ReplicationReducesShiftTraffic) {
  // Same P = 16: (g=4, c=1) vs (g=2, c=4)... keep g fixed instead: compare
  // c = 1 and c = 2 at g = 4 (different P but per-rank words must drop with
  // c because each layer does only g/c shift steps).
  const Shape shape{24, 24, 24};
  const auto c1 = run_alg25d(Alg25dConfig{shape, 4, 1}, kUnverified);
  const auto c2 = run_alg25d(Alg25dConfig{shape, 4, 2}, kUnverified);
  const auto c4 = run_alg25d(Alg25dConfig{shape, 4, 4}, kUnverified);
  auto phase_words = [](const RunReport& report, const char* name) {
    const auto it = report.phase_recv.find(name);
    return it == report.phase_recv.end() ? i64{0} : it->second;
  };
  // Shift traffic shrinks as c grows (c = 4 does zero shift steps);
  // replication adds ~2 blocks, absent at c = 1.
  EXPECT_LT(phase_words(c4, kPhase25dShift), phase_words(c1, kPhase25dShift));
  EXPECT_LT(phase_words(c2, kPhase25dShift), phase_words(c1, kPhase25dShift));
  EXPECT_EQ(phase_words(c1, kPhase25dReplicate), 0);
  EXPECT_GT(phase_words(c2, kPhase25dReplicate), 0);
}

TEST(Alg25d, RespectsLowerBoundEverywhere) {
  for (const auto& [g, c] : {std::pair<i64, i64>{2, 1}, {2, 2}, {4, 2},
                             {4, 4}, {6, 2}}) {
    const Shape shape{24, 24, 24};
    const auto report = run_alg25d(Alg25dConfig{shape, g, c}, kUnverified);
    EXPECT_GE(static_cast<double>(report.measured_critical_recv) + 1e-6,
              report.lower_bound_words)
        << "g=" << g << " c=" << c;
  }
}

TEST(Alg25d, MemoryModelIsPerLayerBlocks) {
  const Alg25dConfig cfg{Shape{24, 24, 24}, 4, 2};
  EXPECT_DOUBLE_EQ(alg25d_memory_words(cfg), 3.0 * 24 * 24 / 16);
}

TEST(Alg25d, CostModelMatchesMeasuredCriticalPath) {
  const Alg25dConfig cfg{Shape{24, 24, 24}, 4, 2};
  const auto report = run_alg25d(cfg, kUnverified);
  EXPECT_DOUBLE_EQ(alg25d_cost_words(cfg),
                   static_cast<double>(report.measured_critical_recv));
}

TEST(Alg25d, Alg1MatchesOrBeats25dBandwidth) {
  // §2.4: Algorithm 1 on the matched (g, c, g) grid achieves the 2.5D
  // bandwidth with plain collectives.
  const Shape shape{24, 24, 24};
  const i64 g = 4, c = 2;
  const auto alg25d = run_alg25d(Alg25dConfig{shape, g, c}, kUnverified);
  const auto alg1 = run_grid3d(
      Grid3dConfig{shape, camb::core::Grid3{g, c, g}}, kUnverified);
  EXPECT_LE(alg1.measured_critical_recv, alg25d.measured_critical_recv);
}

}  // namespace
}  // namespace camb::mm
