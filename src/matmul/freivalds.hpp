// freivalds.hpp — probabilistic verification of matrix products.
//
// Freivalds' check: for random x, compare A(Bx) with Cx in O(n^2) time.  A
// wrong product escapes one trial with probability <= 1/2 (for {0,1} x), so
// `trials` independent draws bound the false-accept probability by 2^-trials.
// The runner uses this for shapes too large to verify against the cubic-time
// serial reference, so even the biggest benchmark runs stay checked.
//
// All trials run in one pass over memory.  Every trial's x is drawn up
// front, trial by trial with n3 draws each (the order a trial-at-a-time
// loop draws in); y = Bx is formed for all of them; then each row of A and
// C yields z = (Ay)_i, sum_j |a_ij y_j| and w = (Cx)_i for a block of
// trials together.  Rows are split over the WorkerPool
// (machine/parallel_rows.hpp).  Every sum still runs over j in index order
// and the maxima over rows and trials do not depend on order, so the
// residual is bit-identical to checking one trial at a time on one thread.
//
// Templated over the scalar type: entries are widened to double through
// ScalarTraits<T>::to_double and the whole residual is accumulated at double
// precision.  For f32 data that means the *check* never loses precision the
// data itself didn't already lose — only the tolerance has to admit the f32
// rounding that happened inside the product under test (see
// freivalds_default_tol).
#pragma once

#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

using camb::i64;
using camb::MatrixD;
using camb::Rng;

/// Per-dtype residual tolerance: the product under test accumulated in T, so
/// the normalized residual is bounded by roughly n2 * eps(T).  Exact scalars
/// leave residual exactly zero (all arithmetic below 2^53 is exact in the
/// double-precision check); f32 products carry single-precision rounding.
template <typename T>
constexpr double freivalds_default_tol() {
  if constexpr (ScalarTraits<T>::exact) {
    return 0.0;
  } else if constexpr (sizeof(T) == sizeof(float) &&
                       !ScalarTraits<T>::exact) {
    return 1e-3;  // f32: ~n2 * 2^-24 with headroom for large n2
  } else {
    return 1e-9;  // double / kahan
  }
}

/// The largest residual over `trials` checks with random {0,1} vectors:
/// per trial, max_i |(A(Bx) - Cx)_i| divided by max(1, max_i sum_j
/// |a_ij (Bx)_j|), computed at double precision regardless of T.  A NaN or
/// inf entry of C gives +inf (see max_residual in util/matrix.hpp).  Throws
/// camb::Error unless A's columns match B's rows, C is A.rows x B.cols, and
/// trials >= 1.  Draws trials * B.cols values from `rng`.
template <typename T>
double freivalds_residual(const Matrix<T>& a, const Matrix<T>& b,
                          const Matrix<T>& c, int trials, Rng& rng);

/// True iff C == A*B passes `trials` Freivalds checks: freivalds_residual
/// over the same draws is at most `tol`.
template <typename T>
bool freivalds_check(const Matrix<T>& a, const Matrix<T>& b,
                     const Matrix<T>& c, int trials, Rng& rng,
                     double tol = freivalds_default_tol<T>());

}  // namespace camb::mm
