// reproduce_paper — the whole reproduction in one binary, self-verifying.
//
// Walks every headline claim of the paper in order, executes the relevant
// computation on the simulated machine or evaluates the relevant closed
// form, and prints a PASS/FAIL verdict per claim plus a final summary.
// Intended as the "does this repository actually reproduce the paper?"
// smoke test a reviewer can run in seconds.
//
//   $ ./reproduce_paper
#include <cmath>
#include <iostream>

#include "core/bounds.hpp"
#include "core/cost_eq3.hpp"
#include "core/grid.hpp"
#include "core/kkt.hpp"
#include "core/partition_audit.hpp"
#include "core/prior_bounds.hpp"
#include "matmul/runner.hpp"

using namespace camb;

namespace {

const mm::RunOptions kVerified =
    mm::RunOptions::verified(mm::VerifyMode::kReference);
const mm::RunOptions kUnverified{};  // VerifyMode::kNone: no assembly

int checks_run = 0;
int checks_passed = 0;

void verdict(const std::string& claim, bool ok) {
  ++checks_run;
  checks_passed += ok ? 1 : 0;
  std::cout << (ok ? "  [PASS] " : "  [FAIL] ") << claim << "\n";
}

void claim_table1_constants() {
  std::cout << "\nClaim 1 (Table 1): Theorem 3's constants are 1, 2, 3 and "
               "strictly improve all prior work.\n";
  const auto ours = core::theorem3_2022();
  verdict("constants are (1, 2, 3)",
          ours.case1 == 1.0 && ours.case2 == 2.0 && ours.case3 == 3.0);
  bool strict = true;
  for (const auto& row : core::table1_rows()) {
    if (row.name == ours.name) continue;
    for (auto regime : {core::RegimeCase::kOneD, core::RegimeCase::kTwoD,
                        core::RegimeCase::kThreeD}) {
      const auto prior = row.constant(regime);
      if (prior.has_value() &&
          prior.value() >= ours.constant(regime).value()) {
        strict = false;
      }
    }
  }
  verdict("strict improvement over every prior constant", strict);
}

void claim_kkt_certificate() {
  std::cout << "\nClaim 2 (Lemma 2): the closed-form solution is optimal — "
               "certified by the paper's KKT dual variables.\n";
  bool all_ok = true;
  for (double P : {2.0, 36.0, 512.0, 1e5}) {
    const core::Lemma2Problem prob{9600, 2400, 600, P};
    const auto sol = core::solve_analytic(prob);
    all_ok &= core::verify_kkt(prob, sol.x, sol.mu, 1e-8).ok();
    // Cross-solver: exact active-set enumeration reaches the same optimum.
    const auto enumerated = core::solve_enumerate(prob);
    const double obj = enumerated[0] + enumerated[1] + enumerated[2];
    all_ok &= std::abs(obj - sol.objective) <= 1e-9 * sol.objective;
  }
  verdict("KKT conditions hold and solvers agree in all three regimes",
          all_ok);
}

void claim_theorem3_is_lower_bound() {
  std::cout << "\nClaim 3 (Theorem 3): no balanced execution beats the bound "
               "(exhaustively, on tiny instances).\n";
  verdict("exhaustive partition audit, 2x2x2 / P=2",
          core::partition_audit_confirms_bound(core::Shape{2, 2, 2}, 2));
  verdict("exhaustive partition audit, 4x2x2 / P=2",
          core::partition_audit_confirms_bound(core::Shape{4, 2, 2}, 2));
  verdict("exhaustive partition audit, 3x2x2 / P=3",
          core::partition_audit_confirms_bound(core::Shape{3, 2, 2}, 3));
}

void claim_algorithm1_attains() {
  std::cout << "\nClaim 4 (section 5): Algorithm 1 with the section-5.2 grid "
               "attains the bound exactly (executed, all regimes).\n";
  struct Case {
    const char* label;
    core::Shape shape;
    i64 P;
  };
  for (const Case& c : {Case{"1D regime, P=3", {384, 96, 24}, 3},
                        Case{"2D regime, P=16", {384, 96, 24}, 16},
                        Case{"3D regime, P=512", {1536, 384, 96}, 512}}) {
    const core::Grid3 grid = core::exact_optimal_grid(c.shape, c.P);
    const auto report =
        mm::run_grid3d(mm::Grid3dConfig{c.shape, grid}, kVerified);
    const bool tight =
        std::abs(static_cast<double>(report.measured_critical_recv) -
                 report.lower_bound_words) <= 1e-9 * report.lower_bound_words;
    verdict(std::string(c.label) + ": measured == bound and result correct",
            tight && report.max_abs_error < 1e-10);
  }
}

void claim_figure2() {
  std::cout << "\nClaim 5 (Figure 2): optimal grids for 9600x2400x600 are "
               "3x1x1, 12x3x1, 32x8x2.\n";
  const core::Shape paper{9600, 2400, 600};
  verdict("P=3 -> 3x1x1",
          core::exact_optimal_grid(paper, 3) == core::Grid3{3, 1, 1});
  verdict("P=36 -> 12x3x1",
          core::exact_optimal_grid(paper, 36) == core::Grid3{12, 3, 1});
  verdict("P=512 -> 32x8x2",
          core::exact_optimal_grid(paper, 512) == core::Grid3{32, 8, 2});
  // And the figure's narrative: what moves in each panel.
  const auto b3 = core::alg1_comm_breakdown(paper, {3, 1, 1});
  const auto b36 = core::alg1_comm_breakdown(paper, {12, 3, 1});
  const auto b512 = core::alg1_comm_breakdown(paper, {32, 8, 2});
  verdict("P=3: only B communicated",
          b3.allgather_a == 0 && b3.allgather_b > 0 && b3.reduce_scatter_c == 0);
  verdict("P=36: B and C communicated, A not",
          b36.allgather_a == 0 && b36.allgather_b > 0 &&
              b36.reduce_scatter_c > 0);
  verdict("P=512: all three communicated",
          b512.allgather_a > 0 && b512.allgather_b > 0 &&
              b512.reduce_scatter_c > 0);
}

void claim_section62() {
  std::cout << "\nClaim 6 (section 6.2): memory-dependent bound dominates "
               "exactly on (mn/k^2, 8/27 mnk/M^1.5].\n";
  const double m = 4096, n = 4096, k = 4096, M = 65536;
  const double threshold = core::memory_dependent_dominance_threshold(m, n, k, M);
  const bool inside =
      core::tightest_bound(m, n, k, threshold * 0.5, M).mem_dependent_dominates;
  const bool outside =
      !core::tightest_bound(m, n, k, threshold * 2.0, M).mem_dependent_dominates;
  verdict("dominates below the threshold, not above", inside && outside);
  // Staged Alg. 1: bandwidth unchanged while temporary memory shrinks.
  const core::Shape shape{384, 96, 24};
  const core::Grid3 grid{8, 2, 1};
  const auto one = mm::run_grid3d_staged({shape, grid, 1}, kUnverified);
  const auto eight = mm::run_grid3d_staged({shape, grid, 8}, kUnverified);
  verdict("staging preserves bandwidth while shrinking memory",
          one.measured_critical_recv == eight.measured_critical_recv &&
              mm::grid3d_staged_peak_memory_words({shape, grid, 8}) <
                  mm::grid3d_staged_peak_memory_words({shape, grid, 1}));
}

void claim_section51_collectives() {
  std::cout << "\nClaim 7 (section 5.1): Reduce-Scatter replaces Agarwal'95's "
               "All-to-All with smaller latency at equal bandwidth.\n";
  const core::Shape shape{24, 32, 16};
  const core::Grid3 grid{2, 8, 2};
  const auto alg1 = mm::run_grid3d(mm::Grid3dConfig{shape, grid}, kVerified);
  const auto agarwal =
      mm::run_grid3d_agarwal(mm::Grid3dAgarwalConfig{shape, grid}, kVerified);
  verdict("equal received words, fewer messages for Alg. 1",
          alg1.measured_critical_recv == agarwal.measured_critical_recv &&
              alg1.measured_critical_messages <
                  agarwal.measured_critical_messages &&
              alg1.max_abs_error < 1e-10 && agarwal.max_abs_error < 1e-10);
}

}  // namespace

int main() {
  std::cout << "Reproducing: Al Daas, Ballard, Grigori, Kumar, Rouse —\n"
            << "\"Tight Memory-Independent Parallel Matrix Multiplication "
               "Communication Lower Bounds\" (SPAA 2022)\n";
  claim_table1_constants();
  claim_kkt_certificate();
  claim_theorem3_is_lower_bound();
  claim_algorithm1_attains();
  claim_figure2();
  claim_section62();
  claim_section51_collectives();
  std::cout << "\n" << checks_passed << "/" << checks_run
            << " checks passed.\n";
  return checks_passed == checks_run ? 0 : 1;
}
