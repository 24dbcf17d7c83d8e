// cannon.hpp — Cannon's algorithm baseline: the classical 2D shift-based
// algorithm on a g×g torus.  Included as a second distinct 2D baseline: its
// bandwidth is similar to SUMMA's but it pays an extra initial skew and uses
// only point-to-point shifts (no collectives), exercising a different
// communication pattern on the machine substrate.
//
// Rank (i, j) starts with blocks A_{ij}, B_{ij} (near-equal splits); after
// the initial skew it holds A_{i,(i+j) mod g} and B_{(i+j) mod g,j}, and each
// of the g steps multiplies the held blocks and shifts A left / B up by one.
#pragma once

#include "matmul/distribution.hpp"
#include "matmul/summa.hpp"

namespace camb::mm {

struct CannonConfig {
  Shape shape;
  i64 g = 1;  ///< grid edge; machine size must be g*g
};

/// SPMD body for one rank, written once against a step session
/// (matmul/step_session.hpp); returns the rank's full C block.  One epoch
/// boundary after every torus step: snapshots carry the held A/B blocks plus
/// the C accumulator, so a restored rank rejoins the torus mid-rotation.
template <typename T, typename Session>
Block2DOutputT<T> cannon_body(Session& session, const CannonConfig& cfg);

/// The body on the machine's own ranks (default scalar: double).
template <typename T = double>
Block2DOutputT<T> cannon_rank(RankCtx& ctx, const CannonConfig& cfg) {
  PlainSession<T> session(ctx);
  return cannon_body<T>(session, cfg);
}

/// Exact predicted received words for `rank` (skew + 2(g−1) shifts; moves to
/// self are free, matching the machine's accounting).
i64 cannon_predicted_recv_words(const CannonConfig& cfg, int rank);

/// Boundary steps the body announces (one per torus step).
i64 cannon_ckpt_steps(const CannonConfig& cfg);
/// Wire words of logical rank `logical`'s snapshot at boundary `step`.
i64 cannon_ckpt_snapshot_words(const CannonConfig& cfg, int logical, i64 step);

inline constexpr const char* kPhaseCannonSkew = "cannon_skew";
inline constexpr const char* kPhaseCannonShift = "cannon_shift";
inline constexpr const char* kPhaseCannonGemm = "cannon_gemm";

}  // namespace camb::mm
