// bench_tightness — the §5.2 tightness claim, swept: for shapes and
// processor counts where the §5.2 grid is integral and divides the
// dimensions, the *executed* communication of Algorithm 1 equals the
// Theorem 3 lower bound exactly (difference identically zero), across all
// three regimes and several matrix orientations.
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

struct Case {
  const char* label;
  core::Shape shape;
  i64 P;
};

}  // namespace

int main() {
  // Executed cases (modest sizes: correctness-verified runs).
  const Case executed_cases[] = {
      {"1D, P=2", {384, 96, 24}, 2},
      {"1D, P=3", {384, 96, 24}, 3},
      {"1D/2D boundary, P=4", {384, 96, 24}, 4},
      {"2D, P=16", {384, 96, 24}, 16},
      {"2D, P=36", {384, 96, 24}, 36},
      {"2D/3D boundary, P=64", {384, 96, 24}, 64},
      {"3D, P=512 (scaled paper shape)", {1536, 384, 96}, 512},
      {"square 3D, P=8", {96, 96, 96}, 8},
      {"square 3D, P=64", {96, 96, 96}, 64},
      {"permuted (k,n,m), P=4", {24, 96, 384}, 4},
      {"permuted (n,k,m), P=16", {96, 24, 384}, 16},
  };

  std::cout << "=== Tightness: executed Algorithm 1 vs Theorem 3 ===\n"
            << "(bound attained means measured - bound == 0 words)\n\n";
  Table table({"case", "shape", "grid", "measured words", "Thm3 bound",
               "difference", "verified"});
  bool all_tight = true;
  for (const Case& c : executed_cases) {
    const core::Grid3 grid = core::exact_optimal_grid(c.shape, c.P);
    mm::Grid3dConfig cfg{c.shape, grid};
    const mm::RunReport report = mm::run_grid3d(cfg, kVerified);
    const double diff =
        static_cast<double>(report.measured_critical_recv) -
        report.lower_bound_words;
    // Attained up to the fp rounding of the bound's fractional powers.
    all_tight &= std::abs(diff) <= 1e-9 * report.lower_bound_words;
    table.add_row(
        {c.label,
         std::to_string(c.shape.n1) + "x" + std::to_string(c.shape.n2) + "x" +
             std::to_string(c.shape.n3),
         std::to_string(grid.p1) + "x" + std::to_string(grid.p2) + "x" +
             std::to_string(grid.p3),
         Table::fmt_int(report.measured_critical_recv),
         Table::fmt(report.lower_bound_words, 1), Table::fmt(diff, 1),
         report.max_abs_error < 1e-10 ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << (all_tight ? "\nAll executed cases attain the bound exactly."
                          : "\nSOME CASE MISSED THE BOUND — investigate!")
            << "\n";

  // Analytic sweep at the paper's full dimensions: eq. 3 on the §5.2 grid
  // equals Theorem 3 for every P where the grid is integral.
  std::cout << "\n=== Analytic sweep at full paper dimensions (9600 x 2400 x "
               "600) ===\n\n";
  const core::Shape paper{9600, 2400, 600};
  Table sweep({"P", "regime", "grid", "eq.3 words", "Thm3 bound", "ratio"});
  int integral = 0;
  for (i64 P = 1; P <= 1 << 20; P *= 2) {
    core::Grid3 grid;
    try {
      grid = core::exact_optimal_grid(paper, P);
    } catch (const Error&) {
      continue;  // §5.2 grid not integral at this P
    }
    ++integral;
    const double cost = core::alg1_cost_words(paper, grid);
    const auto bound =
        core::memory_independent_bound(paper, static_cast<double>(P));
    sweep.add_row({Table::fmt_int(P),
                   std::to_string(static_cast<int>(bound.regime)) + "D",
                   std::to_string(grid.p1) + "x" + std::to_string(grid.p2) +
                       "x" + std::to_string(grid.p3),
                   Table::fmt(cost, 1), Table::fmt(bound.words, 1),
                   bound.words > 0 ? Table::fmt(cost / bound.words, 9)
                                   : "- (both 0)"});
  }
  sweep.print(std::cout);
  std::cout << "\n(" << integral
            << " power-of-two processor counts admit an integral section-5.2 "
               "grid; the\nratio is identically 1 at each.)\n";
  return 0;
}
