// bench_memory_tradeoff — §6.2, executed: the memory/communication/latency
// trade-off space around Algorithm 1.
//
// Three mechanisms, all measured on the simulated machine:
//   1. Staged Algorithm 1: same bandwidth, peak temporary memory shrinks
//      with the stage count, latency grows with it ("reduce the temporary
//      memory … at the expense of higher latency cost but without affecting
//      the bandwidth cost").
//   2. 2.5D replication: more memory (c copies) buys less bandwidth — the
//      smooth trade-off of Solomonik–Demmel / McColl–Tiskin cited in §6.2.
//   3. Grid choice under a memory cap: which grids even fit in a given M,
//      and the bandwidth cost of the best fitting one vs the unconstrained
//      optimum.
#include <algorithm>
#include <iostream>

#include "core/bounds.hpp"
#include "core/cost_eq3.hpp"
#include "core/grid.hpp"
#include "matmul/runner.hpp"
#include "util/table.hpp"

using namespace camb;

namespace {

const mm::RunOptions kVerified =
    mm::RunOptions::verified(mm::VerifyMode::kReference);
const mm::RunOptions kUnverified{};  // VerifyMode::kNone: no assembly

void staged_sweep() {
  const core::Shape shape{384, 96, 24};
  const core::Grid3 grid{8, 2, 1};  // optimal for P = 16
  std::cout << "--- staged Algorithm 1: shape 384x96x24, grid 8x2x1 ---\n"
            << "(peak memory MEASURED via the machine's working-set "
               "accounting, model in parentheses)\n";
  Table table({"stages", "measured words", "messages",
               "peak memory measured (model)", "vs 1-stage"});
  double mem1 = 0;
  for (i64 stages : {1, 2, 4, 8, 16, 48}) {
    mm::Grid3dStagedConfig cfg{shape, grid, stages};
    const auto report = mm::run_grid3d_staged(cfg, kUnverified);
    const auto peak = static_cast<double>(report.measured_peak_memory_words);
    if (stages == 1) mem1 = peak;
    table.add_row({Table::fmt_int(stages),
                   Table::fmt_int(report.measured_critical_recv),
                   Table::fmt_int(report.measured_critical_messages),
                   Table::fmt(peak, 0) + " (" +
                       Table::fmt(mm::grid3d_staged_peak_memory_words(cfg), 0) +
                       ")",
                   Table::fmt(peak / mem1, 3) + "x"});
  }
  table.print(std::cout);
  std::cout << "\nBandwidth is identical in every row (the §6.2 claim); the "
               "B-block term\n(gathered once, kept) is the floor the staging "
               "cannot cross.\n\n";
}

void replication_sweep() {
  const core::Shape shape{48, 48, 48};
  std::cout << "--- 2.5D replication: shape 48x48x48, g = 4 (P = 16c) ---\n";
  Table table({"c", "P", "measured words/rank", "memory words/rank",
               "words * sqrt(c)"});
  for (i64 c : {1, 2, 4}) {
    mm::Alg25dConfig cfg{shape, 4, c};
    const auto report = mm::run_alg25d(cfg, kVerified);
    const double words = static_cast<double>(report.measured_critical_recv);
    table.add_row({Table::fmt_int(c), Table::fmt_int(16 * c),
                   Table::fmt(words, 0),
                   Table::fmt(mm::alg25d_memory_words(cfg) * c, 0),
                   Table::fmt(words * std::sqrt(static_cast<double>(c)), 0)});
  }
  table.print(std::cout);
  std::cout << "\n(The shift term scales ~1/c at fixed g; the classical 2.5D "
               "analysis predicts\ntotal words ~ n^2/sqrt(cP) when g grows "
               "as sqrt(P/c).)\n\n";
}

void memory_capped_grids() {
  const core::Shape shape{9600, 2400, 600};
  const i64 P = 512;
  std::cout << "--- grid choice under a memory cap: paper shape, P = 512 "
               "---\n";
  const auto bound =
      core::memory_independent_bound(shape, static_cast<double>(P));
  const core::Grid3 optimal = core::best_integer_grid(shape, P);
  Table table({"memory cap (words)", "best unstaged grid", "eq.3 words",
               "vs bound", "staged alternative"});
  for (double cap : {5e5, 3e5, 2e5, 1.5e5, 1.2e5, 1e5}) {
    core::Grid3 best;
    double best_cost = -1;
    for (const core::Grid3& g : core::all_grids(P)) {
      if (core::alg1_memory_words(shape, g) > cap) continue;
      const double cost = core::alg1_cost_words(shape, g);
      if (best_cost < 0 || cost < best_cost) {
        best_cost = cost;
        best = g;
      }
    }
    // Staged fallback on the optimal grid: the smallest stage count whose
    // peak fits the cap (the B block is an irreducible floor).
    std::string staged = "impossible (below B floor)";
    for (i64 s = 1; s <= 4096; s *= 2) {
      if (mm::grid3d_staged_peak_memory_words(
              mm::Grid3dStagedConfig{shape, optimal, s}) <= cap) {
        staged = std::to_string(s) + " stage(s), same bandwidth";
        break;
      }
    }
    table.add_row(
        {Table::fmt_sci(cap, 1),
         best_cost < 0 ? "none fits"
                       : std::to_string(best.p1) + "x" + std::to_string(best.p2) +
                             "x" + std::to_string(best.p3),
         best_cost < 0 ? "-" : Table::fmt(best_cost, 0),
         best_cost < 0 ? "-" : Table::fmt(best_cost / bound.words, 3) + "x",
         staged});
  }
  table.print(std::cout);
  std::cout
      << "\nBelow the 3D working set no plain grid fits, but the §6.2 staged "
         "variant keeps\nthe optimal grid's bandwidth down to the B-block "
         "floor; below that floor,\ncommunication must rise (the 2.5D/limited-"
         "memory regime).\n";
}

}  // namespace

int main() {
  std::cout << "=== Memory / communication / latency trade-offs (section "
               "6.2) ===\n\n";
  staged_sweep();
  replication_sweep();
  memory_capped_grids();
  return 0;
}
