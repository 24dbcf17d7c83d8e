// Property tests tying together the runtime layers: logical clocks, the
// algorithm registry, and the analytic time models, on parameterized sweeps.
#include <gtest/gtest.h>

#include <tuple>

#include "collectives/tuning.hpp"
#include "core/grid.hpp"
#include "matmul/algorithm_registry.hpp"
#include "matmul/grid3d_staged.hpp"
#include "matmul/time_model.hpp"

namespace camb::mm {
namespace {

using camb::core::Grid3;
using camb::core::Shape;

const RunOptions kUnverified{};  // VerifyMode::kNone: no assembly

// ---------------------------------------------------------------------------
// Scheduled time vs closed form for Algorithm 1 across grids and variants.
// ---------------------------------------------------------------------------

class ClockVsClosedForm
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ClockVsClosedForm, SymmetricConfigsScheduleExactly) {
  const auto [grid_index, algo_index] = GetParam();
  const Grid3 grids[] = {Grid3{2, 2, 2}, Grid3{4, 2, 1}, Grid3{1, 4, 2},
                         Grid3{8, 1, 1}, Grid3{2, 4, 1}};
  const Shape shape{32, 16, 16};  // divisible by every grid above
  const Grid3 grid = grids[grid_index];
  const auto ag = algo_index == 0 ? coll::AllgatherAlgo::kRing
                                  : coll::AllgatherAlgo::kRecursiveDoubling;
  const auto rs = algo_index == 0 ? coll::ReduceScatterAlgo::kRing
                                  : coll::ReduceScatterAlgo::kRecursiveHalving;
  MachineParams params{1e-4, 1e-7, 0.0};
  Machine machine(static_cast<int>(grid.total()));
  machine.set_time_params(AlphaBeta{params.alpha, params.beta});
  Grid3dConfig cfg{shape, grid, ag, rs};
  machine.run([&](RankCtx& ctx) { (void)grid3d_rank(ctx, cfg); });
  const auto closed = alg1_time(shape, grid, params, ag, rs);
  EXPECT_NEAR(machine.critical_path_time(), closed.latency + closed.bandwidth,
              1e-12)
      << grid.p1 << "x" << grid.p2 << "x" << grid.p3 << " algo " << algo_index;
}

INSTANTIATE_TEST_SUITE_P(GridsByVariant, ClockVsClosedForm,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 2)));

// ---------------------------------------------------------------------------
// Staging's latency price is visible in scheduled time.
// ---------------------------------------------------------------------------

TEST(ClockProperties, StagingCostsTimeOnLatencyBoundMachines) {
  const Shape shape{24, 12, 8};
  const Grid3 grid{2, 2, 2};
  auto scheduled_time = [&](i64 stages) {
    Machine machine(8);
    machine.set_time_params(AlphaBeta{1.0, 0.0});  // latency clock
    Grid3dStagedConfig cfg{shape, grid, stages};
    machine.run([&](RankCtx& ctx) { (void)grid3d_staged_rank(ctx, cfg); });
    return machine.critical_path_time();
  };
  const double t1 = scheduled_time(1);
  const double t3 = scheduled_time(3);
  const double t6 = scheduled_time(6);
  EXPECT_LT(t1, t3);
  EXPECT_LT(t3, t6);
}

TEST(ClockProperties, AgarwalVariantSlowerThanAlg1WhenLatencyBound) {
  // §5.1's remark as a *time* statement: at α-dominated parameters the
  // All-to-All variant's extra rounds cost real schedule length.
  const Shape shape{24, 32, 16};
  const Grid3 grid{2, 8, 2};
  double alg1_time_s, agarwal_time_s;
  {
    Machine machine(32);
    machine.set_time_params(AlphaBeta{1.0, 1e-9});
    Grid3dConfig cfg{shape, grid};
    machine.run([&](RankCtx& ctx) { (void)grid3d_rank(ctx, cfg); });
    alg1_time_s = machine.critical_path_time();
  }
  {
    Machine machine(32);
    machine.set_time_params(AlphaBeta{1.0, 1e-9});
    Grid3dAgarwalConfig cfg{shape, grid};
    machine.run([&](RankCtx& ctx) { (void)grid3d_agarwal_rank(ctx, cfg); });
    agarwal_time_s = machine.critical_path_time();
  }
  EXPECT_LT(alg1_time_s, agarwal_time_s);
}

// ---------------------------------------------------------------------------
// Registry-wide runtime invariants.
// ---------------------------------------------------------------------------

TEST(RegistryRuntime, SimulatedTimePositiveIffCommunicating) {
  const Shape shape{16, 16, 16};
  for (const auto& algorithm : algorithm_registry()) {
    if (algorithm.supports(shape, 1)) {
      const auto solo = algorithm.run_opts(shape, 1, kUnverified);
      EXPECT_DOUBLE_EQ(solo.simulated_time, 0.0) << algorithm.name;
    }
    if (algorithm.supports(shape, 4)) {
      const auto parallel = algorithm.run_opts(shape, 4, kUnverified);
      EXPECT_GT(parallel.simulated_time, 0.0) << algorithm.name;
      if (algorithm.name == "grid3d_optimal") {
        // Symmetric collectives: the unit-β clock is at least the words the
        // busiest rank received (its receives chain behind equal sends).
        EXPECT_GE(parallel.simulated_time,
                  static_cast<double>(parallel.measured_critical_recv));
      }
    }
  }
}

TEST(RegistryRuntime, TimeDominatedByDependencyDepthNotVolumeAlone) {
  // The naive baseline's broadcast serializes through rank 0 (its clock grows
  // with log P trees of full matrices); Algorithm 1's collectives do not.
  const Shape shape{32, 32, 32};
  const auto optimal =
      algorithm_by_name("grid3d_optimal").run_opts(shape, 8, kUnverified);
  const auto naive =
      algorithm_by_name("naive_bcast").run_opts(shape, 8, kUnverified);
  EXPECT_LT(optimal.simulated_time, naive.simulated_time);
}

// ---------------------------------------------------------------------------
// Tuning decisions hold up on the executed machine.
// ---------------------------------------------------------------------------

TEST(TuningOnMachine, ChosenAlltoallVariantIsFasterInSchedule) {
  const int p = 8;
  const coll::TuningParams tuning{1.0, 1e-4};
  auto scheduled = [&](i64 block, coll::AlltoallAlgo algo) {
    Machine machine(p);
    machine.set_time_params(AlphaBeta{tuning.alpha, tuning.beta});
    machine.run([&](RankCtx& ctx) {
      std::vector<std::vector<double>> blocks(
          static_cast<std::size_t>(p),
          std::vector<double>(static_cast<std::size_t>(block), 1.0));
      (void)coll::alltoall(coll::Comm::world(ctx), blocks, algo);
    });
    return machine.critical_path_time();
  };
  for (i64 block : {1, 64, 1 << 16}) {
    const auto chosen = coll::choose_alltoall(p, block, tuning);
    const auto other = chosen == coll::AlltoallAlgo::kBruck
                           ? coll::AlltoallAlgo::kPairwise
                           : coll::AlltoallAlgo::kBruck;
    EXPECT_LE(scheduled(block, chosen), scheduled(block, other) * (1 + 1e-9))
        << "block=" << block;
  }
}

}  // namespace
}  // namespace camb::mm
