// bench_carma_gap — the paper's raison d'être, measured: Demmel et al.'s
// recursive algorithm (CARMA) is asymptotically optimal in all three
// regimes, but its constants are loose; Algorithm 1 with the §5.2 grid
// attains the tight constants of Theorem 3 exactly.  This bench measures
// both on the same problems and reports each one's ratio to the bound —
// the gap is precisely what "tight constants" buys.
#include <iostream>

#include "core/bounds.hpp"
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
  int levels;  // P = 2^levels
};

}  // namespace

int main() {
  std::cout << "=== Tight constants vs asymptotic optimality: Algorithm 1 vs "
               "CARMA ===\n\n";
  const Case cases[] = {
      {"1D regime", {512, 64, 32}, 2},         // P = 4 <= m/n = 8
      {"2D regime", {384, 96, 24}, 4},         // P = 16 in [4, 64]
      {"3D regime (square)", {64, 64, 64}, 6}, // P = 64
      {"3D regime (rect)", {128, 64, 32}, 6},  // P = 64 > mn/k^2 = 8
  };
  Table table({"case", "P", "bound", "Alg.1 words", "Alg.1/bound",
               "CARMA words", "CARMA/bound", "splits"});
  for (const Case& c : cases) {
    const i64 P = i64{1} << c.levels;
    if (!mm::carma_supported(c.shape, c.levels)) {
      std::cout << "skipping " << c.label << " (divisibility)\n";
      continue;
    }
    const core::Grid3 grid = core::best_integer_grid(c.shape, P);
    const auto alg1 =
        mm::run_grid3d(mm::Grid3dConfig{c.shape, grid}, kVerified);
    const auto carma =
        mm::run_carma(mm::CarmaConfig{c.shape, c.levels}, kVerified);
    const double bound = alg1.lower_bound_words;
    std::string splits;
    for (char s : mm::carma_split_sequence(mm::CarmaConfig{c.shape, c.levels})) {
      splits += s;
    }
    table.add_row(
        {c.label, Table::fmt_int(P), Table::fmt(bound, 1),
         Table::fmt_int(alg1.measured_critical_recv),
         Table::fmt(static_cast<double>(alg1.measured_critical_recv) / bound, 3),
         Table::fmt_int(carma.measured_critical_recv),
         Table::fmt(static_cast<double>(carma.measured_critical_recv) / bound, 3),
         splits});
  }
  table.print(std::cout);
  std::cout
      << "\nBoth algorithms scale with the same leading-order exponents (the\n"
         "asymptotic result of Demmel et al. 2013), but CARMA's binary splits\n"
         "leave a constant-factor gap in every regime; Algorithm 1 with the\n"
         "section-5.2 grid sits at exactly 1.000x — the tightness Theorem 3\n"
         "establishes, and the practical payoff of knowing the constants.\n";
  return 0;
}
