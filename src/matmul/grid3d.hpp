// grid3d.hpp — Algorithm 1: communication-optimal parallel matrix
// multiplication on a p1×p2×p3 logical processor grid (§5).
//
//   1. All-Gather A_{q1 q2} across the fiber (q1, q2, :)        [line 3]
//   2. All-Gather B_{q2 q3} across the fiber (:, q2, q3)        [line 4]
//   3. Local multiply D = A_{q1 q2} · B_{q2 q3}                 [line 6]
//   4. Reduce-Scatter D across the fiber (q1, :, q3) → C chunk  [line 8]
//
// With the §5.2 optimal grid this attains the Theorem 3 lower bound exactly
// (under divisibility), which is what proves the constants tight.  Grids
// with p_i = 1 degenerate to 2D and 1D algorithms with zero cost for the
// corresponding collective, exactly as in the paper's case analysis.
#pragma once

#include "collectives/allgather.hpp"
#include "collectives/reduce_scatter.hpp"
#include "matmul/distribution.hpp"
#include "matmul/step_session.hpp"
#include "util/matrix.hpp"

namespace camb::mm {

struct Grid3dConfig {
  Shape shape;
  Grid3 grid;
  coll::AllgatherAlgo allgather = coll::AllgatherAlgo::kAuto;
  coll::ReduceScatterAlgo reduce_scatter = coll::ReduceScatterAlgo::kAuto;
  /// Generate inputs with the integer-valued indexed pattern (exact,
  /// order-independent sums).  The ABFT wrapper forces this on.
  bool integer_inputs = false;
};

/// A rank's piece of the output: a flat chunk of its C block.
template <typename T>
struct Grid3dRankOutputT {
  BlockChunk c_chunk;
  std::vector<T> c_data;
};
using Grid3dRankOutput = Grid3dRankOutputT<double>;

/// The chunk layout for one rank (which flat parts of which blocks of A, B,
/// and C the rank owns initially / finally).
struct Grid3dLayout {
  BlockChunk a, b, c;
  std::vector<i64> a_counts, b_counts, c_counts;  ///< fiber chunk sizes
};

/// Computes the data layout of `rank` under the configuration.
Grid3dLayout grid3d_layout(const Grid3dConfig& cfg, int rank);

/// SPMD body of Algorithm 1 for one rank, written once against a step
/// session (matmul/step_session.hpp): epoch boundaries after the A
/// all-gather, the B all-gather, and the gemm + reduce-scatter.  Inputs are
/// generated locally with the deterministic indexed pattern (no
/// distribution traffic), so all measured communication is the algorithm's
/// own.  Instantiated for PlainSession<T> and ckpt::SessionT<T> over the
/// CAMB_FOR_EACH_SCALAR set.
template <typename T, typename Session>
Grid3dRankOutputT<T> grid3d_body(Session& session, const Grid3dConfig& cfg);

/// The body on the machine's own ranks; the default scalar keeps legacy
/// double call sites source-compatible.
template <typename T = double>
Grid3dRankOutputT<T> grid3d_rank(RankCtx& ctx, const Grid3dConfig& cfg) {
  PlainSession<T> session(ctx);
  return grid3d_body<T>(session, cfg);
}

/// The stepped body of Algorithm 1 parameterized by its three fiber comms
/// and pre-filled local chunks, so the same code runs on the world grid
/// (grid3d_body) and on a survivors' recovery grid (the elastic twin).
/// `layout` must be this rank's logical layout; `fiber_a` is the comm of
/// the (q1, q2, :) fiber, `fiber_b` of (:, q2, q3), `fiber_c` of (q1, :, q3).
/// Instantiated for both sessions (the ABFT checkpoint twin runs it as its
/// first three steps).
template <typename T, typename Session>
Grid3dRankOutputT<T> grid3d_core(Session& session, const Grid3dConfig& cfg,
                                 const Grid3dLayout& layout,
                                 const coll::Comm& fiber_a,
                                 const coll::Comm& fiber_b,
                                 const coll::Comm& fiber_c,
                                 std::vector<T> a_local,
                                 std::vector<T> b_local);

/// Exact predicted words received by `rank`, replicating the collective
/// round structure (matches the executed machine word-for-word).
i64 grid3d_predicted_recv_words(const Grid3dConfig& cfg, int rank);

/// Max of grid3d_predicted_recv_words over all ranks.
i64 grid3d_predicted_critical_recv_words(const Grid3dConfig& cfg);

i64 grid3d_ckpt_steps(const Grid3dConfig& cfg);
i64 grid3d_ckpt_snapshot_words(const Grid3dConfig& cfg, int logical, i64 step);

/// Phase labels used by the implementation (for per-phase accounting).
inline constexpr const char* kPhaseAllgatherA = "allgather_A";
inline constexpr const char* kPhaseAllgatherB = "allgather_B";
inline constexpr const char* kPhaseLocalGemm = "local_gemm";
inline constexpr const char* kPhaseReduceScatterC = "reduce_scatter_C";

}  // namespace camb::mm
