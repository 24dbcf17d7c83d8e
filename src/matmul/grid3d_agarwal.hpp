// grid3d_agarwal.hpp — the Agarwal et al. (1995) original that Algorithm 1
// refines.
//
// §5.1: "The difference between Alg. 1 and (Agarwal et al., 1995,
// Algorithm 1) is the Reduce-Scatter collective, which replaces the
// All-to-All collective and has smaller latency cost."
//
// This variant is Algorithm 1 with line 8 implemented the 1995 way: each
// rank splits its local product D into p2 personalized pieces, exchanges
// them with its fiber via All-to-All, and sums the received contributions
// locally.  Bandwidth is identical to Reduce-Scatter ((1 − 1/p2)·|D|); the
// differences the paper calls out are measurable here:
//   * latency: p2 − 1 rounds (pairwise) instead of ⌈log2 p2⌉;
//   * the reduction flops move after the exchange (each rank sums p2 partial
//     segments itself instead of folding them into the collective).
#pragma once

#include "collectives/alltoall.hpp"
#include "matmul/grid3d.hpp"

namespace camb::mm {

struct Grid3dAgarwalConfig {
  Shape shape;
  Grid3 grid;
  coll::AllgatherAlgo allgather = coll::AllgatherAlgo::kAuto;
  coll::AlltoallAlgo alltoall = coll::AlltoallAlgo::kPairwise;
};

/// SPMD body for one rank, written once against a step session
/// (matmul/step_session.hpp): boundaries after the A all-gather, the B
/// all-gather, and the gemm + all-to-all + local sum.  Same data layout and
/// output ownership as Algorithm 1 (grid3d_layout applies unchanged).
template <typename T, typename Session>
Grid3dRankOutputT<T> grid3d_agarwal_body(Session& session,
                                         const Grid3dAgarwalConfig& cfg);

/// The body on the machine's own ranks (default scalar: double).
template <typename T = double>
Grid3dRankOutputT<T> grid3d_agarwal_rank(RankCtx& ctx,
                                         const Grid3dAgarwalConfig& cfg) {
  PlainSession<T> session(ctx);
  return grid3d_agarwal_body<T>(session, cfg);
}

/// Exact predicted received words for `rank`.
i64 grid3d_agarwal_predicted_recv_words(const Grid3dAgarwalConfig& cfg,
                                        int rank);

i64 grid3d_agarwal_ckpt_steps(const Grid3dAgarwalConfig& cfg);
i64 grid3d_agarwal_ckpt_snapshot_words(const Grid3dAgarwalConfig& cfg,
                                       int logical, i64 step);

inline constexpr const char* kPhaseAlltoallC = "alltoall_C";

}  // namespace camb::mm
