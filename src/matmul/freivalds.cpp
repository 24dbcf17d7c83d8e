#include "matmul/freivalds.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "machine/parallel_rows.hpp"
#include "util/error.hpp"

namespace camb::mm {

namespace {

/// Trials one pass over a row carries together.  The z and |a·y|
/// accumulators of a block (2 x 8 doubles) stay in the 16 SSE2 registers of
/// the baseline x86-64 target, while every row of A and C is read from
/// memory once and re-read from L1 for the following blocks.
constexpr int kTrialBlock = 8;

/// out[k] = sum_j row[j] * v[j][k] for the kTrialBlock trials of one block,
/// each sum accumulated in j order at double precision.  With kMagnitude,
/// `mag` receives sum_j |row[j] * v[j][k]| alongside.
template <typename T, bool kMagnitude>
void block_dot(const T* row, i64 n, const double* v, double* out,
               double* mag) {
  double acc[kTrialBlock] = {};
  double abs_acc[kTrialBlock] = {};
  for (i64 j = 0; j < n; ++j) {
    const double r = ScalarTraits<T>::to_double(row[j]);
    const double* vj = v + j * kTrialBlock;
    // Fully unrolled, the block's accumulators live in registers; as a
    // loop at -O2 they round-trip through the stack on every j (4x slower).
#pragma GCC unroll kTrialBlock
    for (int k = 0; k < kTrialBlock; ++k) {
      const double p = r * vj[k];
      acc[k] += p;
      if constexpr (kMagnitude) abs_acc[k] += std::abs(p);
    }
  }
  std::copy(acc, acc + kTrialBlock, out);
  if constexpr (kMagnitude) std::copy(abs_acc, abs_acc + kTrialBlock, mag);
}

}  // namespace

template <typename T>
double freivalds_residual(const Matrix<T>& a, const Matrix<T>& b,
                          const Matrix<T>& c, int trials, Rng& rng) {
  CAMB_CHECK_MSG(a.cols() == b.rows(), "inner dimensions must agree");
  CAMB_CHECK_MSG(c.rows() == a.rows() && c.cols() == b.cols(),
                 "product shape mismatch");
  CAMB_CHECK_MSG(trials >= 1, "need at least one trial");
  const i64 n1 = a.rows(), n2 = a.cols(), n3 = b.cols();
  const i64 blocks = (trials + kTrialBlock - 1) / kTrialBlock;
  const i64 padded = blocks * kTrialBlock;

  // Vectors are stored block-major, [block][index][trial in block], so a
  // block's pass over a row reads one contiguous stream.  Trials past
  // `trials` pad the last block with zero vectors and are never read back.
  // x: every trial's {0,1} vector, drawn trial by trial, n3 draws each.
  std::vector<double> x(static_cast<std::size_t>(padded * n3), 0.0);
  for (int t = 0; t < trials; ++t) {
    double* xt = x.data() + (t / kTrialBlock) * n3 * kTrialBlock +
                 t % kTrialBlock;
    for (i64 j = 0; j < n3; ++j) {
      xt[j * kTrialBlock] = (rng() & 1) ? 1.0 : 0.0;
    }
  }

  // y = B x for every trial.
  std::vector<double> y(static_cast<std::size_t>(padded * n2));
  parallel_rows(n2, n3, [&](i64 begin, i64 end) {
    for (i64 i = begin; i < end; ++i) {
      for (i64 blk = 0; blk < blocks; ++blk) {
        block_dot<T, false>(b.data() + i * n3, n3,
                            x.data() + blk * n3 * kTrialBlock,
                            y.data() + (blk * n2 + i) * kTrialBlock, nullptr);
      }
    }
  });

  // Per trial: worst = max_i |(A y)_i - (C x)_i|, scale = max(1, max_i
  // sum_j |a_ij y_j|).  Each slice keeps its own maxima and folds them in
  // under the lock; a max does not depend on the order it is taken in.  A
  // NaN or inf in row i of C makes (C x)_i NaN or inf in every trial
  // (0 * NaN and 0 * inf are NaN), and max_residual folds a NaN difference
  // in as +inf, so such a C has residual +inf.
  std::vector<double> worst(static_cast<std::size_t>(padded), 0.0);
  std::vector<double> scale(static_cast<std::size_t>(padded), 1.0);
  std::mutex fold_mutex;
  parallel_rows(n1, n2 + n3, [&](i64 begin, i64 end) {
    std::vector<double> slice_worst(worst.size(), 0.0);
    std::vector<double> slice_scale(scale.size(), 1.0);
    double z[kTrialBlock], z_mag[kTrialBlock], w[kTrialBlock];
    for (i64 i = begin; i < end; ++i) {
      for (i64 blk = 0; blk < blocks; ++blk) {
        block_dot<T, true>(a.data() + i * n2, n2,
                           y.data() + blk * n2 * kTrialBlock, z, z_mag);
        block_dot<T, false>(c.data() + i * n3, n3,
                            x.data() + blk * n3 * kTrialBlock, w, nullptr);
        for (int k = 0; k < kTrialBlock; ++k) {
          const std::size_t t = static_cast<std::size_t>(blk * kTrialBlock + k);
          slice_worst[t] =
              max_residual(slice_worst[t], std::abs(z[k] - w[k]));
          slice_scale[t] = std::max(slice_scale[t], z_mag[k]);
        }
      }
    }
    std::lock_guard<std::mutex> lock(fold_mutex);
    for (std::size_t t = 0; t < worst.size(); ++t) {
      worst[t] = std::max(worst[t], slice_worst[t]);
      scale[t] = std::max(scale[t], slice_scale[t]);
    }
  });

  double residual = 0.0;
  for (int t = 0; t < trials; ++t) {
    const std::size_t i = static_cast<std::size_t>(t);
    residual = max_residual(residual, worst[i] / scale[i]);
  }
  return residual;
}

template <typename T>
bool freivalds_check(const Matrix<T>& a, const Matrix<T>& b,
                     const Matrix<T>& c, int trials, Rng& rng, double tol) {
  return freivalds_residual<T>(a, b, c, trials, rng) <= tol;
}

#define CAMB_INSTANTIATE(T)                                                 \
  template bool freivalds_check<T>(const Matrix<T>&, const Matrix<T>&,      \
                                   const Matrix<T>&, int, Rng&, double);    \
  template double freivalds_residual<T>(const Matrix<T>&, const Matrix<T>&, \
                                        const Matrix<T>&, int, Rng&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

}  // namespace camb::mm
