// gemm_shapes.hpp — the shapes most likely to break a blocked GEMM kernel,
// shared by the kernel's bit-exactness test and the reference-verifier test.
#pragma once

#include "matmul/local_gemm.hpp"

namespace camb::mm::test {

struct GemmShape {
  i64 rows, inner, cols;
};

// Awkward shapes: unit dims, primes, tall-skinny / short-wide, and every
// blocking-parameter boundary ±1 (micro-tile mr/nr, panel kc/nc, and the
// reference kernel's own tile).
inline constexpr GemmShape kAwkwardGemmShapes[] = {
    {1, 1, 1},
    {1, 7, 1},
    {2, 500, 2},
    {500, 2, 3},
    {13, 17, 19},
    {97, 193, 257},
    {kGemmMr - 1, 5, kGemmNr - 1},
    {kGemmMr + 1, 5, kGemmNr + 1},
    {2 * kGemmMr + 1, kGemmKc - 1, 2 * kGemmNr + 1},
    {3, kGemmKc + 1, kGemmNc - 1},
    {5, kGemmKc, kGemmNc + 1},
    {kGemmTile - 1, kGemmTile + 1, kGemmTile - 1},
    {kGemmTile, kGemmTile, kGemmTile},
    {kGemmTile + 1, kGemmTile - 1, kGemmTile + 1},
};

}  // namespace camb::mm::test
