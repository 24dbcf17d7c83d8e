// bench_kernels — google-benchmark microbenchmarks of the substrate:
// the local GEMM kernel (the γ term), mailbox round-trips and machine spawn
// overhead (simulation costs), and collective throughput per group size.
#include <benchmark/benchmark.h>

#include <numeric>

#include "collectives/allgather.hpp"
#include "collectives/reduce_scatter.hpp"
#include "machine/machine.hpp"
#include "matmul/local_gemm.hpp"
#include "matmul/runner.hpp"

namespace {

using namespace camb;
using namespace camb::mm;

const RunOptions kUnverified{};  // VerifyMode::kNone: no assembly

void BM_LocalGemm(benchmark::State& state) {
  const i64 n = state.range(0);
  MatrixD a(n, n), b(n, n), c(n, n);
  a.fill_indexed(0, 0);
  b.fill_indexed(1, 1);
  for (auto _ : state) {
    gemm_accumulate(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);  // flops
}
BENCHMARK(BM_LocalGemm)->Arg(64)->Arg(128)->Arg(256);

void BM_LocalGemmF32(benchmark::State& state) {
  const i64 n = state.range(0);
  Matrix<float> a(n, n), b(n, n), c(n, n);
  a.fill_indexed(0, 0);
  b.fill_indexed(1, 1);
  for (auto _ : state) {
    gemm_accumulate(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);  // flops
}
BENCHMARK(BM_LocalGemmF32)->Arg(64)->Arg(128)->Arg(256);

void BM_ReferenceGemm(benchmark::State& state) {
  const i64 n = state.range(0);
  MatrixD a(n, n), b(n, n);
  a.fill_indexed(0, 0);
  b.fill_indexed(1, 1);
  for (auto _ : state) {
    MatrixD c = matmul_reference(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_ReferenceGemm)->Arg(64)->Arg(128);

void BM_MachineSpawn(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Machine machine(p);
    machine.run([](RankCtx&) {});
  }
  state.SetItemsProcessed(state.iterations() * p);
}
BENCHMARK(BM_MachineSpawn)->Arg(4)->Arg(16)->Arg(64);

void BM_MailboxPingPong(benchmark::State& state) {
  const i64 words = state.range(0);
  Machine machine(2);
  for (auto _ : state) {
    machine.run([&](RankCtx& ctx) {
      if (ctx.rank() == 0) {
        ctx.send(1, 0, std::vector<double>(static_cast<std::size_t>(words)));
        (void)ctx.recv(1, 1);
      } else {
        (void)ctx.recv(0, 0);
        ctx.send(0, 1, std::vector<double>(static_cast<std::size_t>(words)));
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * 2 * words * 8);
}
BENCHMARK(BM_MailboxPingPong)->Arg(64)->Arg(4096)->Arg(262144);

void BM_Allgather(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const i64 block = state.range(1);
  for (auto _ : state) {
    Machine machine(p);
    machine.run([&](RankCtx& ctx) {
      (void)coll::allgather_equal(
          coll::Comm::world(ctx),
          std::vector<double>(static_cast<std::size_t>(block)));
    });
  }
  state.SetBytesProcessed(state.iterations() * p * (p - 1) * block * 8);
}
BENCHMARK(BM_Allgather)->Args({4, 4096})->Args({8, 4096})->Args({16, 4096});

void BM_ReduceScatter(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const i64 seg = state.range(1);
  for (auto _ : state) {
    Machine machine(p);
    machine.run([&](RankCtx& ctx) {
      (void)coll::reduce_scatter_equal(
          coll::Comm::world(ctx),
          std::vector<double>(static_cast<std::size_t>(seg * p), 1.0));
    });
  }
  state.SetBytesProcessed(state.iterations() * p * (p - 1) * seg * 8);
}
BENCHMARK(BM_ReduceScatter)->Args({4, 4096})->Args({8, 4096})->Args({16, 4096});

void BM_Grid3dEndToEnd(benchmark::State& state) {
  const i64 edge = state.range(0);
  const core::Shape shape{4 * edge, 2 * edge, edge};
  const core::Grid3 grid{4, 2, 1};
  for (auto _ : state) {
    mm::Grid3dConfig cfg{shape, grid};
    const auto report = mm::run_grid3d(cfg, kUnverified);
    benchmark::DoNotOptimize(report.measured_critical_recv);
  }
  state.SetItemsProcessed(state.iterations() * shape.flops());
}
BENCHMARK(BM_Grid3dEndToEnd)->Arg(16)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
