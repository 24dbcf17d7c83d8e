// bench_time_model — the full α-β-γ running-time picture.
//
// The paper's bounds fix the β (bandwidth) term; this bench puts it in
// context: predicted execution times of Algorithm 1 vs the baselines across
// machine parameter regimes (latency-dominated, bandwidth-dominated,
// compute-dominated), and the latency price of the §6.2 staged variant.
// All rows are closed-form model evaluations cross-checked against measured
// message/word counts from executed runs.
#include <iostream>

#include "core/grid.hpp"
#include "matmul/time_model.hpp"
#include "util/table.hpp"

using namespace camb;
using mm::MachineParams;

namespace {

const mm::RunOptions kUnverified{};  // VerifyMode::kNone: no assembly

void regime_table(const char* label, const MachineParams& params) {
  const core::Shape shape{9600, 2400, 600};
  const i64 P = 64;
  const core::Grid3 optimal = core::best_integer_grid(shape, P);
  std::cout << "--- " << label << ": alpha=" << params.alpha
            << "s, beta=" << params.beta << "s/word, gamma=" << params.gamma
            << "s/flop; paper shape, P = 64 ---\n";
  Table table({"algorithm", "latency s", "bandwidth s", "compute s",
               "total s"});
  auto add = [&](const std::string& name, const mm::TimeBreakdown& t) {
    table.add_row({name, Table::fmt_sci(t.latency, 2),
                   Table::fmt_sci(t.bandwidth, 2), Table::fmt_sci(t.compute, 2),
                   Table::fmt_sci(t.total(), 2)});
  };
  add("Alg. 1, optimal grid " + std::to_string(optimal.p1) + "x" +
          std::to_string(optimal.p2) + "x" + std::to_string(optimal.p3),
      mm::alg1_time(shape, optimal, params));
  add("Alg. 1, square 2D grid 8x1x8",
      mm::alg1_time(shape, core::Grid3{8, 1, 8}, params));
  add("Alg. 1, ring collectives",
      mm::alg1_time(shape, optimal, params, coll::AllgatherAlgo::kRing,
                    coll::ReduceScatterAlgo::kRing));
  add("SUMMA 8x8", mm::summa_time(shape, 8, params));
  add("Cannon 8x8", mm::cannon_time(shape, 8, params));
  table.print(std::cout);
  std::cout << "\n";
}

void staging_latency_price() {
  const core::Shape shape{9600, 2400, 600};
  const core::Grid3 grid{16, 4, 1};  // optimal at P = 64
  std::cout << "--- latency price of §6.2 staging (alpha = 1e-5 s) ---\n";
  MachineParams params{1e-5, 1e-9, 1e-11};
  Table table({"stages", "latency s", "bandwidth s", "total s"});
  for (i64 stages : {1, 4, 16, 64, 256}) {
    const auto t = mm::alg1_staged_time(shape, grid, stages, params);
    table.add_row({Table::fmt_int(stages), Table::fmt_sci(t.latency, 2),
                   Table::fmt_sci(t.bandwidth, 2),
                   Table::fmt_sci(t.total(), 2)});
  }
  table.print(std::cout);
  std::cout << "\nBandwidth is constant; staging is free until the stage "
               "count makes\nalpha * stages * rounds comparable to beta * "
               "words.\n\n";
}

void measured_crosscheck() {
  std::cout << "--- model vs measured (executed run, shape 384x96x24, P = 16) "
               "---\n";
  const core::Shape shape{384, 96, 24};
  const core::Grid3 grid{8, 2, 1};
  MachineParams params{1e-6, 1e-9, 0.0};
  const auto predicted = mm::alg1_time(shape, grid, params);
  const auto report =
      mm::run_grid3d(mm::Grid3dConfig{shape, grid}, kUnverified);
  const double measured = mm::measured_time(report, 0.0, params);
  std::cout << "predicted (closed form): " << Table::fmt_sci(predicted.total(), 6)
            << " s\nmeasured  (machine):     " << Table::fmt_sci(measured, 6)
            << " s\n(messages " << report.measured_critical_messages
            << ", words " << report.measured_critical_recv << ")\n\n";

  // Scheduled critical path from the logical clocks: unlike the aggregate
  // alpha*msgs + beta*words estimate, it follows the program's actual
  // dependency structure — for symmetric divisible configs the two coincide.
  std::cout << "--- scheduled critical path (logical clocks) vs closed form "
               "---\n";
  Table table({"algorithm", "closed form s", "scheduled s"});
  {
    Machine machine(16);
    machine.set_time_params(AlphaBeta{params.alpha, params.beta});
    mm::Grid3dConfig cfg{shape, grid};
    machine.run([&](RankCtx& ctx) { (void)mm::grid3d_rank(ctx, cfg); });
    table.add_row({"Alg. 1 (8x2x1)",
                   Table::fmt_sci(predicted.latency + predicted.bandwidth, 6),
                   Table::fmt_sci(machine.critical_path_time(), 6)});
  }
  {
    Machine machine(16);
    machine.set_time_params(AlphaBeta{params.alpha, params.beta});
    const auto closed = mm::summa_time(shape, 4, params);
    machine.run([&](RankCtx& ctx) {
      (void)mm::summa_rank(ctx, mm::SummaConfig{shape, 4});
    });
    table.add_row({"SUMMA 4x4 (broadcast trees pipeline)",
                   Table::fmt_sci(closed.latency + closed.bandwidth, 6),
                   Table::fmt_sci(machine.critical_path_time(), 6)});
  }
  table.print(std::cout);
  std::cout << "\nAlg. 1's symmetric collectives schedule exactly at the "
               "closed form; SUMMA's\nscheduled time EXCEEDS the per-rank "
               "aggregate because each stage's broadcast\nroot serializes its "
               "sends and consecutive stages chain through those roots —\n"
               "a dependency-structure cost the aggregate estimate "
               "underestimates and the\nlogical clock measures.\n";
}

}  // namespace

int main() {
  std::cout << "=== alpha-beta-gamma time model ===\n\n";
  regime_table("bandwidth-dominated machine", {1e-7, 1e-8, 1e-12});
  regime_table("latency-dominated machine", {1e-2, 1e-10, 1e-12});
  regime_table("compute-dominated machine", {1e-7, 1e-11, 1e-9});
  staging_latency_price();
  measured_crosscheck();
  return 0;
}
