// algorithm_registry.hpp — every parallel multiplication algorithm in the
// library behind one uniform interface.
//
// The registry is how sweeping clients (the randomized stress tests, the
// baseline benches, downstream users comparing algorithms) enumerate what is
// available, check applicability for a (shape, P), and run it — without
// hard-coding each algorithm's configuration type.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "matmul/runner.hpp"

namespace camb::mm {

struct AlgorithmInfo {
  std::string name;
  /// True iff the algorithm can run this (shape, P) — e.g. SUMMA needs a
  /// square P, 2.5D needs P = g*g*c with c | g.
  std::function<bool(const Shape& shape, i64 nprocs)> supports;
  /// Execute on the simulated machine with full run options (verification
  /// mode, dtype, fault injection / schedule perturbation, master seed);
  /// the entry picks its own grid/config details.
  std::function<RunReport(const Shape& shape, i64 nprocs,
                          const RunOptions& opts)>
      run_opts;
  /// True for algorithms expected to attain the lower bound on divisible
  /// optimal-grid configurations (Algorithm 1 and its variants).
  bool bandwidth_optimal = false;
};

/// All registered algorithms, stable order.
const std::vector<AlgorithmInfo>& algorithm_registry();

/// Lookup by name; throws camb::Error if absent.
const AlgorithmInfo& algorithm_by_name(const std::string& name);

}  // namespace camb::mm
