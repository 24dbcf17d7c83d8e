// bench_table1 — regenerates Table 1 of the paper: the explicit constants on
// the leading term of the memory-independent lower bound in each regime, for
// prior work and for Theorem 3 — and then demonstrates that Theorem 3's
// constants are *achieved* by Algorithm 1 (executed on the simulated
// machine), which is what makes them tight.
//
// Output:
//   (1) the table of constants exactly as in the paper;
//   (2) per regime, a sweep of executed runs showing
//       measured_words / leading_term -> the Theorem 3 constant.
#include <cmath>
#include <iostream>

#include "core/bounds.hpp"
#include "core/grid.hpp"
#include "core/prior_bounds.hpp"
#include "matmul/runner.hpp"
#include "util/table.hpp"

using namespace camb;

namespace {

const mm::RunOptions kUnverified{};  // VerifyMode::kNone: no assembly

std::string fmt_constant(const std::optional<double>& c) {
  return c.has_value() ? Table::fmt(c.value(), 3) : "-";
}

void print_constants_table() {
  std::cout << "=== Table 1: constants on the leading term of the "
               "memory-independent lower bound ===\n"
            << "regimes:  case 1: 1 <= P <= m/n   (leading term nk)\n"
            << "          case 2: m/n <= P <= mn/k^2   (leading term "
               "(mnk^2/P)^{1/2})\n"
            << "          case 3: mn/k^2 <= P   (leading term (mnk/P)^{2/3})\n\n";
  Table table({"result", "case 1", "case 2", "case 3"});
  for (const auto& row : core::table1_rows()) {
    table.add_row({row.name, fmt_constant(row.case1), fmt_constant(row.case2),
                   fmt_constant(row.case3)});
  }
  table.print(std::cout);
}

/// Executed demonstration that the Theorem 3 constant is attained: run
/// Algorithm 1 with the §5.2 grid and report measured words / leading term.
void print_attainment_sweep() {
  std::cout << "\n=== Attainment: executed Algorithm 1 vs the leading term "
               "===\n"
            << "(measured words -> constant * leading term as P grows within "
               "each regime;\n the lower-order -(mn+mk+nk)/P term explains "
               "the gap at small P)\n\n";
  // Scaled-down paper shape: 1536 x 384 x 96 (aspect 16:4:1), m/n = 4,
  // mn/k^2 = 64 — all three regimes reachable with executable P.
  const core::Shape shape{1536, 384, 96};
  struct Row {
    i64 P;
    core::Grid3 grid;
  };
  const Row rows[] = {
      {2, {2, 1, 1}},   {4, {4, 1, 1}},                      // case 1
      {16, {8, 2, 1}},  {36, {12, 3, 1}}, {64, {16, 4, 1}},  // case 2
      {512, {32, 8, 2}},                                     // case 3
  };
  Table table({"P", "regime", "grid", "leading term", "measured words",
               "measured/leading", "Thm3 constant", "bound attained"});
  for (const Row& row : rows) {
    const auto bound =
        core::memory_independent_bound(shape, static_cast<double>(row.P));
    mm::Grid3dConfig cfg{shape, row.grid};
    const mm::RunReport report = mm::run_grid3d(cfg, kUnverified);
    const double measured =
        static_cast<double>(report.measured_critical_recv);
    table.add_row(
        {Table::fmt_int(row.P),
         std::to_string(static_cast<int>(bound.regime)) + "D",
         std::to_string(row.grid.p1) + "x" + std::to_string(row.grid.p2) +
             "x" + std::to_string(row.grid.p3),
         Table::fmt(bound.leading_term, 1), Table::fmt(measured, 1),
         Table::fmt(measured / bound.leading_term, 4),
         Table::fmt(bound.constant, 0),
         std::abs(measured - bound.words) <= 1e-9 * bound.words
             ? "exactly"
             : Table::fmt(measured / std::max(1.0, bound.words), 6)});
  }
  table.print(std::cout);
  std::cout << "\nNote: measured/leading < constant because the bound "
               "subtracts the owned\ndata (mn+mk+nk)/P; the 'bound attained' "
               "column compares against the full\nTheorem 3 expression and "
               "shows exact equality.\n";
}

/// The constants as ratios: how much each prior result under-estimates the
/// true communication requirement at a representative point per regime.
void print_improvement_factors() {
  std::cout << "\n=== Improvement factors of Theorem 3 over prior bounds "
               "===\n\n";
  Table table({"regime", "vs Aggarwal'90", "vs Irony'04", "vs Demmel'13"});
  const auto rows = core::table1_rows();
  for (core::RegimeCase regime : {core::RegimeCase::kOneD,
                                  core::RegimeCase::kTwoD,
                                  core::RegimeCase::kThreeD}) {
    const double ours = core::theorem3_2022().constant(regime).value();
    auto factor = [&](const core::PriorBoundRow& row) -> std::string {
      const auto c = row.constant(regime);
      return c.has_value() ? Table::fmt(ours / c.value(), 3) + "x" : "-";
    };
    table.add_row({std::to_string(static_cast<int>(regime)), factor(rows[0]),
                   factor(rows[1]), factor(rows[2])});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  print_constants_table();
  print_attainment_sweep();
  print_improvement_factors();
  return 0;
}
