// local_gemm.hpp — the local (per-processor) dense multiplication kernel,
// i.e. the γ part of the α-β-γ model.
//
// A register-blocked, panel-packed kernel: not a vendor BLAS, but an honest
// kernel with the structure of one (packed B panel for unit-stride reuse,
// an mr×nr register micro-tile, k innermost).  On x86-64 the full micro-tile
// additionally has AVX2 variants for double (4×8 over paired 4-wide pd
// registers) and float (4×8 over single 8-wide ps registers) selected at
// runtime (per-function target attribute + cpuid check), so the build stays
// portable; i64 and kahan always take the scalar micro-tile.  Numerically
// every path computes the same sums as the reference implementation —
// addition order per output element is identical (ascending k), and the
// AVX2 paths use separate vmul/vadd, which round exactly like scalar
// mul+add and cannot be fused (their target lacks FMA) — which keeps
// distributed results bit-comparable across schedulers and kernels for
// every scalar.  (That equivalence holds at the default target arch;
// building with CAMB_NATIVE may let the compiler contract the *scalar*
// kernels' mul+add into FMAs, which changes low-order bits.)
#pragma once

#include "util/matrix.hpp"

namespace camb::mm {

using camb::i64;
using camb::MatrixD;

/// C += A * B, register-blocked.  Shapes: A is r×c, B is c×s, C is r×s.
/// Templated over the scalar; defined for the CAMB_FOR_EACH_SCALAR set
/// (util/scalar.hpp) via explicit instantiation.
template <typename T>
void gemm_accumulate(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& c);

/// gemm_accumulate on rows [row_begin, row_end) of A and C against all of
/// B.  Each output element sums the same products in the same order as the
/// whole-matrix call, so its bits do not depend on the range, and disjoint
/// ranges of one C may run concurrently.
template <typename T>
void gemm_accumulate_rows(const Matrix<T>& a, const Matrix<T>& b,
                          Matrix<T>& c, i64 row_begin, i64 row_end);

/// C += A * B as a plain tiled triple loop (the pre-blocking kernel).  The
/// bit-exactness oracle: gemm_accumulate must produce exactly these bits on
/// every shape.  Also the "before" side of the kernel benchmark.
template <typename T>
void gemm_accumulate_reference(const Matrix<T>& a, const Matrix<T>& b,
                               Matrix<T>& c);

/// C = A * B (allocates C).
template <typename T>
Matrix<T> gemm(const Matrix<T>& a, const Matrix<T>& b);

/// gemm with C's rows cut into slices on the WorkerPool
/// (machine/parallel_rows.hpp; inline for small products or on a pool
/// worker).  Bit-identical to gemm, and so to camb::matmul_reference: both
/// start C at zero and sum each element's products in ascending k.
template <typename T>
Matrix<T> gemm_pooled(const Matrix<T>& a, const Matrix<T>& b);

/// Tile edge used by the reference kernel (exposed for the kernel bench).
inline constexpr i64 kGemmTile = 64;

/// Blocking parameters of the register-blocked kernel (exposed so the
/// bit-exactness test can probe tile-boundary ±1 shapes deliberately).
inline constexpr i64 kGemmMr = 4;    ///< micro-tile rows
inline constexpr i64 kGemmNr = 8;    ///< micro-tile cols
inline constexpr i64 kGemmKc = 192;  ///< packed-panel depth
inline constexpr i64 kGemmNc = 256;  ///< packed-panel width

}  // namespace camb::mm
