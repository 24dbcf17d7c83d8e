// grid3d_staged.hpp — §6.2: the limited-memory adaptation of Algorithm 1.
//
// "Alg. 1 can be adapted to reduce the temporary memory required … at the
//  expense of higher latency cost but without affecting the bandwidth cost."
//
// The adaptation: split the rows of the local A block (and hence of the
// local product D) into `stages` strips.  Stage σ All-Gathers only strip σ
// of A, multiplies it against the (once-gathered) B block, and immediately
// Reduce-Scatters the resulting strip of D.  Across all stages every word of
// A and D still moves exactly once — the bandwidth is identical to the
// unstaged algorithm — but each collective now runs `stages` times, so the
// message (latency) count grows by that factor, and the peak temporary
// memory for the A strip and D strip shrinks by it.
//
// The B block is gathered once and kept: shrinking it too would require
// re-gathering pieces of B once per A strip, multiplying B's bandwidth by
// the stage count — the §6.2 observation that for 3D grids, memory below the
// gathered-input footprint necessarily costs extra communication.
#pragma once

#include "matmul/grid3d.hpp"

namespace camb::mm {

struct Grid3dStagedConfig {
  Shape shape;
  Grid3 grid;
  i64 stages = 1;  ///< strips of the local A/D rows (>= 1)
  coll::AllgatherAlgo allgather = coll::AllgatherAlgo::kAuto;
  coll::ReduceScatterAlgo reduce_scatter = coll::ReduceScatterAlgo::kAuto;
};

/// A rank's output: one owned C piece per stage (the staged ownership layout
/// differs from the unstaged one: each stage's strip is split across the
/// p2 fiber independently).
template <typename T>
struct Grid3dStagedRankOutputT {
  std::vector<BlockChunk> c_chunks;
  std::vector<std::vector<T>> c_data;
};
using Grid3dStagedRankOutput = Grid3dStagedRankOutputT<double>;

/// SPMD body for one rank, written once against a step session
/// (matmul/step_session.hpp): one boundary after the up-front B all-gather,
/// then one per stage (snapshots carry B plus every completed stage's C
/// piece).
template <typename T, typename Session>
Grid3dStagedRankOutputT<T> grid3d_staged_body(Session& session,
                                              const Grid3dStagedConfig& cfg);

/// The body on the machine's own ranks (default scalar: double).
template <typename T = double>
Grid3dStagedRankOutputT<T> grid3d_staged_rank(RankCtx& ctx,
                                              const Grid3dStagedConfig& cfg) {
  PlainSession<T> session(ctx);
  return grid3d_staged_body<T>(session, cfg);
}

/// Exact predicted received words for `rank` (equals the unstaged total up
/// to the near-equal rounding of strip boundaries).
i64 grid3d_staged_predicted_recv_words(const Grid3dStagedConfig& cfg,
                                       int rank);

/// Peak temporary memory words per rank under this staging: full B block +
/// one A strip + one D strip (+ owned chunks, which are output, not temp).
double grid3d_staged_peak_memory_words(const Grid3dStagedConfig& cfg);

/// Message count per rank along the critical path (the latency price).
i64 grid3d_staged_messages(const Grid3dStagedConfig& cfg, int rank);

i64 grid3d_staged_ckpt_steps(const Grid3dStagedConfig& cfg);
i64 grid3d_staged_ckpt_snapshot_words(const Grid3dStagedConfig& cfg,
                                      int logical, i64 step);

}  // namespace camb::mm
