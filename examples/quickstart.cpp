// quickstart — the 60-second tour of the library.
//
// Given a matrix multiplication shape and a processor count, this example
//   1. classifies the regime and evaluates the Theorem 3 lower bound,
//   2. picks the communication-optimal processor grid (§5.2),
//   3. runs Algorithm 1 on the simulated machine,
//   4. compares measured communication against the bound, word for word.
//
//   $ ./quickstart --n1 384 --n2 96 --n3 24 --p 16
#include <iostream>

#include "core/bounds.hpp"
#include "core/cost_eq3.hpp"
#include "core/grid.hpp"
#include "matmul/runner.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace camb;
  Cli cli;
  cli.add_flag("n1", "rows of A and C", "384");
  cli.add_flag("n2", "cols of A / rows of B", "96");
  cli.add_flag("n3", "cols of B and C", "24");
  cli.add_flag("p", "number of processors", "16");
  cli.add_flag("verify", "check the result against the serial reference",
               "true");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("quickstart");
    return 0;
  }

  const core::Shape shape{cli.get_int("n1"), cli.get_int("n2"),
                          cli.get_int("n3")};
  const i64 P = cli.get_int("p");

  // 1. The lower bound.
  const auto bound =
      core::memory_independent_bound(shape, static_cast<double>(P));
  const char* regime_names[] = {"", "1D (P <= m/n)",
                                "2D (m/n <= P <= mn/k^2)",
                                "3D (mn/k^2 <= P)"};
  std::cout << "shape: " << shape.n1 << " x " << shape.n2 << " x " << shape.n3
            << ", P = " << P << "\n"
            << "regime: " << regime_names[static_cast<int>(bound.regime)]
            << "\n"
            << "Theorem 3 lower bound: " << bound.words
            << " words per processor (leading term " << bound.constant << " * "
            << bound.leading_term << ")\n";

  // 2. The optimal grid.
  const core::Grid3 grid = core::best_integer_grid(shape, P);
  std::cout << "optimal integer grid: " << grid.p1 << " x " << grid.p2 << " x "
            << grid.p3 << " (eq. 3 cost "
            << core::alg1_cost_words(shape, grid) << " words)\n";

  // 3. Run Algorithm 1 on the simulated machine.
  mm::Grid3dConfig cfg{shape, grid};
  const mm::RunReport report = mm::run_grid3d(
      cfg, mm::RunOptions::verified(cli.get_bool("verify")
                                        ? mm::VerifyMode::kReference
                                        : mm::VerifyMode::kNone));

  // 4. Compare.
  std::cout << "executed on the simulated machine:\n"
            << "  measured communication (critical path): "
            << report.measured_critical_recv << " words\n"
            << "  analytic prediction:                    "
            << report.predicted_critical_recv << " words\n"
            << "  lower bound:                            "
            << report.lower_bound_words << " words\n"
            << "  measured / bound ratio:                 "
            << (report.lower_bound_words > 0
                    ? static_cast<double>(report.measured_critical_recv) /
                          report.lower_bound_words
                    : 1.0)
            << "\n";
  if (report.verified) {
    std::cout << "  max |C - C_ref|: " << report.max_abs_error << "\n";
  }
  return 0;
}
