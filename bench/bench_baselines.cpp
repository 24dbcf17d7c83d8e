// bench_baselines — the §2.4 context, executed: Algorithm 1 with the optimal
// grid vs classical baselines (SUMMA, Cannon, naive broadcast, and Alg. 1 on
// deliberately sub-optimal grids standing in for fixed-strategy libraries),
// across the three regimes.  The headline: who wins, by what factor, and
// where each baseline's communication sits relative to Theorem 3.
#include <iostream>

#include "core/bounds.hpp"
#include "core/grid.hpp"
#include "matmul/runner.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

using namespace camb;

namespace {

const mm::RunOptions kVerified =
    mm::RunOptions::verified(mm::VerifyMode::kReference);

void compare(const char* label, const core::Shape& shape, i64 P) {
  const auto bound =
      core::memory_independent_bound(shape, static_cast<double>(P));
  std::cout << "--- " << label << ": shape " << shape.n1 << "x" << shape.n2
            << "x" << shape.n3 << ", P = " << P << " (regime "
            << static_cast<int>(bound.regime) << "D), bound = "
            << Table::fmt(bound.words, 1) << " words ---\n";
  Table table({"algorithm", "measured words/rank", "vs bound", "verified"});

  auto add = [&](const std::string& name, const mm::RunReport& report) {
    table.add_row({name, Table::fmt_int(report.measured_critical_recv),
                   Table::fmt(static_cast<double>(
                                  report.measured_critical_recv) /
                                  std::max(1.0, bound.words),
                              3) +
                       "x",
                   !report.verified ? "-"
                                    : (report.max_abs_error < 1e-9 ? "yes"
                                                                   : "NO")});
  };

  const core::Grid3 best = core::best_integer_grid(shape, P);
  add("Algorithm 1, optimal grid " + std::to_string(best.p1) + "x" +
          std::to_string(best.p2) + "x" + std::to_string(best.p3),
      mm::run_grid3d(mm::Grid3dConfig{shape, best}, kVerified));
  add("Agarwal'95 (All-to-All), same grid",
      mm::run_grid3d_agarwal(mm::Grid3dAgarwalConfig{shape, best}, kVerified));

  const i64 g = isqrt(P);
  if (g * g == P) {
    add("SUMMA " + std::to_string(g) + "x" + std::to_string(g),
        mm::run_summa(mm::SummaConfig{shape, g}, kVerified));
    add("Cannon " + std::to_string(g) + "x" + std::to_string(g),
        mm::run_cannon(mm::CannonConfig{shape, g}, kVerified));
    add("Algorithm 1 on the square 2D grid " + std::to_string(g) + "x1x" +
            std::to_string(g),
        mm::run_grid3d(mm::Grid3dConfig{shape, core::Grid3{g, 1, g}},
                       kVerified));
  }
  // 2.5D with the deepest replication that fits P = g'^2 * c.
  for (i64 c : {2, 4}) {
    if (P % c != 0) continue;
    const i64 gsq = P / c;
    const i64 gg = isqrt(gsq);
    if (gg * gg != gsq || gg % c != 0) continue;
    add("2.5D " + std::to_string(gg) + "x" + std::to_string(gg) + "x" +
            std::to_string(c),
        mm::run_alg25d(mm::Alg25dConfig{shape, gg, c}, kVerified));
  }
  add("naive broadcast-everything",
      mm::run_naive_bcast(mm::NaiveBcastConfig{shape}, P, kVerified));
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << "=== Baselines vs the communication-optimal algorithm ===\n\n";
  // 1D regime: strongly rectangular, few processors.  2D algorithms pay for
  // partitioning the short dimensions.
  compare("1D regime", core::Shape{512, 64, 32}, 4);
  // 2D regime: the optimal grid is 2D but aspect-matched, not square.
  compare("2D regime", core::Shape{384, 96, 24}, 16);
  // 3D regime: square-ish problem, many processors — 2D algorithms leave the
  // P^{2/3} scaling on the table.
  compare("3D regime", core::Shape{96, 96, 96}, 64);
  // Square problem at moderate P for a like-for-like SUMMA comparison.
  compare("square, moderate P", core::Shape{120, 120, 120}, 36);
  std::cout
      << "Reading: Algorithm 1 with the section-5.2 grid is at 1.000x the "
         "bound in every\nregime.  Square-grid 2D algorithms match it only "
         "for square problems in the 2D\nregime and lose by growing factors "
         "elsewhere; the naive baseline does not scale\nat all.\n";
  return 0;
}
