#include "matmul/local_gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "machine/parallel_rows.hpp"
#include "util/error.hpp"
#include "util/scalar.hpp"

// The AVX2 micro-kernels are compiled per-function via the `target`
// attribute and selected at runtime, so the library still runs on any
// x86-64 (and the translation unit's baseline arch stays the build default).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CAMB_GEMM_AVX2_DISPATCH 1
#include <immintrin.h>
#endif

namespace camb::mm {

namespace {

// The micro-kernel computes an mr×nr tile of C over a packed kc×nc panel of
// B.  Accumulators live in registers for the whole k loop; each output
// element sums its products in ascending k — the same order as the
// reference kernel, so the result is bit-identical (absent FMA contraction,
// which the default target arch cannot do).

template <typename T, i64 MR>
inline void micro_full(const T* a, i64 lda, const T* bp, i64 nc, T* c,
                       i64 ldc, i64 kc) {
  T acc[MR][kGemmNr];
  for (i64 r = 0; r < MR; ++r) {
    for (i64 v = 0; v < kGemmNr; ++v) acc[r][v] = c[r * ldc + v];
  }
  for (i64 k = 0; k < kc; ++k) {
    const T* brow = bp + k * nc;
    for (i64 r = 0; r < MR; ++r) {
      const T ar = a[r * lda + k];
      for (i64 v = 0; v < kGemmNr; ++v) acc[r][v] += ar * brow[v];
    }
  }
  for (i64 r = 0; r < MR; ++r) {
    for (i64 v = 0; v < kGemmNr; ++v) c[r * ldc + v] = acc[r][v];
  }
}

#ifdef CAMB_GEMM_AVX2_DISPATCH
// AVX2 variant of the 4×8 double micro-tile.  Bit-identity with the scalar
// kernels holds by construction: vmulpd/vaddpd round each lane exactly as
// the scalar mul and add do, the k order is unchanged, and fusion into FMA
// is impossible — the function's target is avx2, which does not include FMA.
__attribute__((target("avx2"))) void micro_full_avx2(const double* a, i64 lda,
                                                     const double* bp, i64 nc,
                                                     double* c, i64 ldc,
                                                     i64 kc) {
  static_assert(kGemmMr == 4 && kGemmNr == 8,
                "micro_full_avx2 is written for a 4x8 tile");
  __m256d a0lo = _mm256_loadu_pd(c + 0 * ldc);
  __m256d a0hi = _mm256_loadu_pd(c + 0 * ldc + 4);
  __m256d a1lo = _mm256_loadu_pd(c + 1 * ldc);
  __m256d a1hi = _mm256_loadu_pd(c + 1 * ldc + 4);
  __m256d a2lo = _mm256_loadu_pd(c + 2 * ldc);
  __m256d a2hi = _mm256_loadu_pd(c + 2 * ldc + 4);
  __m256d a3lo = _mm256_loadu_pd(c + 3 * ldc);
  __m256d a3hi = _mm256_loadu_pd(c + 3 * ldc + 4);
  for (i64 k = 0; k < kc; ++k) {
    const double* brow = bp + k * nc;
    const __m256d blo = _mm256_loadu_pd(brow);
    const __m256d bhi = _mm256_loadu_pd(brow + 4);
    __m256d ar = _mm256_set1_pd(a[0 * lda + k]);
    a0lo = _mm256_add_pd(a0lo, _mm256_mul_pd(ar, blo));
    a0hi = _mm256_add_pd(a0hi, _mm256_mul_pd(ar, bhi));
    ar = _mm256_set1_pd(a[1 * lda + k]);
    a1lo = _mm256_add_pd(a1lo, _mm256_mul_pd(ar, blo));
    a1hi = _mm256_add_pd(a1hi, _mm256_mul_pd(ar, bhi));
    ar = _mm256_set1_pd(a[2 * lda + k]);
    a2lo = _mm256_add_pd(a2lo, _mm256_mul_pd(ar, blo));
    a2hi = _mm256_add_pd(a2hi, _mm256_mul_pd(ar, bhi));
    ar = _mm256_set1_pd(a[3 * lda + k]);
    a3lo = _mm256_add_pd(a3lo, _mm256_mul_pd(ar, blo));
    a3hi = _mm256_add_pd(a3hi, _mm256_mul_pd(ar, bhi));
  }
  _mm256_storeu_pd(c + 0 * ldc, a0lo);
  _mm256_storeu_pd(c + 0 * ldc + 4, a0hi);
  _mm256_storeu_pd(c + 1 * ldc, a1lo);
  _mm256_storeu_pd(c + 1 * ldc + 4, a1hi);
  _mm256_storeu_pd(c + 2 * ldc, a2lo);
  _mm256_storeu_pd(c + 2 * ldc + 4, a2hi);
  _mm256_storeu_pd(c + 3 * ldc, a3lo);
  _mm256_storeu_pd(c + 3 * ldc + 4, a3hi);
}

// AVX2 variant of the 4×8 float micro-tile: the whole 8-wide row fits one
// ps register, so each C row is a single accumulator.  Same bit-identity
// argument as the double kernel — vmulps/vaddps per-lane round like scalar
// float mul+add, ascending k, no FMA on this target.
__attribute__((target("avx2"))) void micro_full_avx2_f32(const float* a,
                                                         i64 lda,
                                                         const float* bp,
                                                         i64 nc, float* c,
                                                         i64 ldc, i64 kc) {
  static_assert(kGemmMr == 4 && kGemmNr == 8,
                "micro_full_avx2_f32 is written for a 4x8 tile");
  __m256 acc0 = _mm256_loadu_ps(c + 0 * ldc);
  __m256 acc1 = _mm256_loadu_ps(c + 1 * ldc);
  __m256 acc2 = _mm256_loadu_ps(c + 2 * ldc);
  __m256 acc3 = _mm256_loadu_ps(c + 3 * ldc);
  for (i64 k = 0; k < kc; ++k) {
    const __m256 brow = _mm256_loadu_ps(bp + k * nc);
    acc0 = _mm256_add_ps(acc0,
                         _mm256_mul_ps(_mm256_set1_ps(a[0 * lda + k]), brow));
    acc1 = _mm256_add_ps(acc1,
                         _mm256_mul_ps(_mm256_set1_ps(a[1 * lda + k]), brow));
    acc2 = _mm256_add_ps(acc2,
                         _mm256_mul_ps(_mm256_set1_ps(a[2 * lda + k]), brow));
    acc3 = _mm256_add_ps(acc3,
                         _mm256_mul_ps(_mm256_set1_ps(a[3 * lda + k]), brow));
  }
  _mm256_storeu_ps(c + 0 * ldc, acc0);
  _mm256_storeu_ps(c + 1 * ldc, acc1);
  _mm256_storeu_ps(c + 2 * ldc, acc2);
  _mm256_storeu_ps(c + 3 * ldc, acc3);
}
#endif  // CAMB_GEMM_AVX2_DISPATCH

template <typename T>
using MicroFullFn = void (*)(const T*, i64, const T*, i64, T*, i64, i64);

/// The full-tile kernel for T: AVX2 when T has a vector variant and the CPU
/// supports it, the portable scalar template otherwise (always for i64 and
/// kahan — integer multiplies and compensated adds have no profitable 256-bit
/// formulation that preserves the scalar semantics).
template <typename T>
MicroFullFn<T> resolve_micro_full() {
#ifdef CAMB_GEMM_AVX2_DISPATCH
  if constexpr (std::is_same_v<T, double>) {
    if (__builtin_cpu_supports("avx2")) return micro_full_avx2;
  } else if constexpr (std::is_same_v<T, float>) {
    if (__builtin_cpu_supports("avx2")) return micro_full_avx2_f32;
  }
#endif
  return micro_full<T, kGemmMr>;
}

// Edge micro-tile with runtime mr×nr (bottom rows / rightmost columns).
template <typename T>
inline void micro_edge(const T* a, i64 lda, const T* bp, i64 nc, T* c,
                       i64 ldc, i64 kc, i64 mr, i64 nr) {
  T acc[kGemmMr][kGemmNr];
  for (i64 r = 0; r < mr; ++r) {
    for (i64 v = 0; v < nr; ++v) acc[r][v] = c[r * ldc + v];
  }
  for (i64 k = 0; k < kc; ++k) {
    const T* brow = bp + k * nc;
    for (i64 r = 0; r < mr; ++r) {
      const T ar = a[r * lda + k];
      for (i64 v = 0; v < nr; ++v) acc[r][v] += ar * brow[v];
    }
  }
  for (i64 r = 0; r < mr; ++r) {
    for (i64 v = 0; v < nr; ++v) c[r * ldc + v] = acc[r][v];
  }
}

}  // namespace

template <typename T>
void gemm_accumulate_rows(const Matrix<T>& a, const Matrix<T>& b,
                          Matrix<T>& c, i64 row_begin, i64 row_end) {
  CAMB_CHECK_MSG(a.cols() == b.rows(), "inner dimensions must agree");
  CAMB_CHECK_MSG(c.rows() == a.rows() && c.cols() == b.cols(),
                 "output shape mismatch");
  CAMB_CHECK_MSG(0 <= row_begin && row_begin <= row_end && row_end <= a.rows(),
                 "gemm row range out of range");
  const i64 rows = row_end - row_begin, inner = a.cols(), cols = b.cols();
  const T* adata = a.data() + row_begin * inner;
  const T* bdata = b.data();
  T* cdata = c.data() + row_begin * cols;
  // Resolved once per process (magic static, one per scalar): AVX2
  // micro-tile if the CPU and scalar have it, the portable template
  // otherwise.  Both produce identical bits.
  static const MicroFullFn<T> micro = resolve_micro_full<T>();
  // Panel scratch is reused across calls on the same thread; in the
  // simulator every rank thread runs many GEMMs of identical block shape.
  static thread_local std::vector<T> panel;
  for (i64 k0 = 0; k0 < inner; k0 += kGemmKc) {
    const i64 kc = std::min(kGemmKc, inner - k0);
    for (i64 j0 = 0; j0 < cols; j0 += kGemmNc) {
      const i64 nc = std::min(kGemmNc, cols - j0);
      panel.resize(static_cast<std::size_t>(kc * nc));
      for (i64 k = 0; k < kc; ++k) {
        std::memcpy(panel.data() + k * nc, bdata + (k0 + k) * cols + j0,
                    static_cast<std::size_t>(nc) * sizeof(T));
      }
      i64 i = 0;
      for (; i + kGemmMr <= rows; i += kGemmMr) {
        i64 j = 0;
        for (; j + kGemmNr <= nc; j += kGemmNr) {
          micro(adata + i * inner + k0, inner, panel.data() + j, nc,
                cdata + i * cols + j0 + j, cols, kc);
        }
        if (j < nc) {
          micro_edge(adata + i * inner + k0, inner, panel.data() + j, nc,
                     cdata + i * cols + j0 + j, cols, kc, kGemmMr, nc - j);
        }
      }
      if (i < rows) {
        for (i64 j = 0; j < nc; j += kGemmNr) {
          const i64 nr = std::min(kGemmNr, nc - j);
          micro_edge(adata + i * inner + k0, inner, panel.data() + j, nc,
                     cdata + i * cols + j0 + j, cols, kc, rows - i, nr);
        }
      }
    }
  }
}

template <typename T>
void gemm_accumulate(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& c) {
  gemm_accumulate_rows(a, b, c, 0, a.rows());
}

template <typename T>
void gemm_accumulate_reference(const Matrix<T>& a, const Matrix<T>& b,
                               Matrix<T>& c) {
  CAMB_CHECK_MSG(a.cols() == b.rows(), "inner dimensions must agree");
  CAMB_CHECK_MSG(c.rows() == a.rows() && c.cols() == b.cols(),
                 "output shape mismatch");
  const i64 rows = a.rows(), inner = a.cols(), cols = b.cols();
  for (i64 i0 = 0; i0 < rows; i0 += kGemmTile) {
    const i64 imax = std::min(i0 + kGemmTile, rows);
    for (i64 k0 = 0; k0 < inner; k0 += kGemmTile) {
      const i64 kmax = std::min(k0 + kGemmTile, inner);
      for (i64 j0 = 0; j0 < cols; j0 += kGemmTile) {
        const i64 jmax = std::min(j0 + kGemmTile, cols);
        for (i64 i = i0; i < imax; ++i) {
          for (i64 k = k0; k < kmax; ++k) {
            const T aik = a(i, k);
            const T* brow = b.data() + k * cols;
            T* crow = c.data() + i * cols;
            for (i64 j = j0; j < jmax; ++j) crow[j] += aik * brow[j];
          }
        }
      }
    }
  }
}

template <typename T>
Matrix<T> gemm(const Matrix<T>& a, const Matrix<T>& b) {
  Matrix<T> c(a.rows(), b.cols());
  gemm_accumulate(a, b, c);
  return c;
}

template <typename T>
Matrix<T> gemm_pooled(const Matrix<T>& a, const Matrix<T>& b) {
  Matrix<T> c(a.rows(), b.cols());
  // parallel_rows' inline floor counts elements of a fill-like loop (one
  // hash each, a few ns); a row of C costs a.cols() * b.cols() mul-adds at
  // about a tenth of a ns each.  Counting kMulAddsPerElement mul-adds as
  // one element keeps products under ~2M mul-adds (96^3) inline, where
  // waking the pool costs about what the slices would save.
  constexpr i64 kMulAddsPerElement = 32;
  parallel_rows(a.rows(),
                ceil_div(checked_mul(a.cols(), b.cols()), kMulAddsPerElement),
                [&](i64 begin, i64 end) {
                  gemm_accumulate_rows(a, b, c, begin, end);
                });
  return c;
}

#define CAMB_INSTANTIATE(T)                                                \
  template void gemm_accumulate<T>(const Matrix<T>&, const Matrix<T>&,     \
                                   Matrix<T>&);                            \
  template void gemm_accumulate_rows<T>(const Matrix<T>&, const Matrix<T>&, \
                                        Matrix<T>&, i64, i64);              \
  template void gemm_accumulate_reference<T>(const Matrix<T>&,             \
                                             const Matrix<T>&, Matrix<T>&); \
  template Matrix<T> gemm<T>(const Matrix<T>&, const Matrix<T>&);          \
  template Matrix<T> gemm_pooled<T>(const Matrix<T>&, const Matrix<T>&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

}  // namespace camb::mm
