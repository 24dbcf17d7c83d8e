// alg25d.hpp — the 2.5D algorithm of Solomonik & Demmel (2011), the
// classical memory-for-communication trade-off baseline (§2.4, §6.2).
//
// P = g*g*c processors form a g×g×c grid (c "replication layers", c | g).
// One copy of A and B starts on layer 0 (so the lower bound's one-copy
// assumption holds); the algorithm explicitly replicates them c-fold:
//
//   1. depth-broadcast A_{ij}, B_{ij} from layer 0 to all layers,
//   2. per-layer initial skew so layer l starts at k-offset l*(g/c),
//   3. g/c Cannon-style multiply+shift steps within each layer,
//   4. depth-reduce the partial C blocks back onto layer 0.
//
// Per-rank communication is ~ 2 n^2 / sqrt(cP) for square problems: more
// memory (c copies) buys less communication, interpolating between Cannon
// (c = 1) and the 3D algorithm (c = g).  Algorithm 1 on a matched grid
// achieves the same bandwidth with one collective per matrix, which is the
// §2.4 point that 3D-style algorithms subsume 2.5D.
#pragma once

#include "matmul/distribution.hpp"
#include "matmul/summa.hpp"

namespace camb::mm {

struct Alg25dConfig {
  Shape shape;
  i64 g = 1;  ///< layer grid edge
  i64 c = 1;  ///< replication depth; requires c | g, machine size g*g*c
  /// Generate inputs with the integer-valued indexed pattern (exact,
  /// order-independent sums).  The elastic wrapper forces this on so C is
  /// bit-identical across grids.
  bool integer_inputs = false;
};

/// SPMD body for one rank, written once against a step session
/// (matmul/step_session.hpp): the replicate + skew prologue at epoch 0
/// only, one boundary per in-layer Cannon step, the depth-reduce epilogue.
/// Layer-0 ranks return their full C block; other layers return an empty
/// block (the output lives in one copy, on layer 0).
template <typename T, typename Session>
Block2DOutputT<T> alg25d_body(Session& session, const Alg25dConfig& cfg);

/// The body on the machine's own ranks (default scalar: double).
template <typename T = double>
Block2DOutputT<T> alg25d_rank(RankCtx& ctx, const Alg25dConfig& cfg) {
  PlainSession<T> session(ctx);
  return alg25d_body<T>(session, cfg);
}

/// Steps 1–4 for logical position (i, j, l) from the session's resume step
/// on, parameterized by the three fiber comms and the layer-0 holdings
/// (empty off layer 0), so the same code runs on the world grid
/// (alg25d_body) and on a survivors' recovery grid (the elastic twin).
/// Returns the reduced C block values (layer 0) or an empty vector (other
/// layers).  Instantiated for PlainSession<T>.
template <typename T, typename Session>
std::vector<T> alg25d_core(Session& session, const Alg25dConfig& cfg, i64 i,
                           i64 j, i64 l, const coll::Comm& depth,
                           const coll::Comm& my_row, const coll::Comm& my_col,
                           std::vector<T> a_held, std::vector<T> b_held);

/// Exact predicted received words for `rank`.
i64 alg25d_predicted_recv_words(const Alg25dConfig& cfg, int rank);

i64 alg25d_ckpt_steps(const Alg25dConfig& cfg);
i64 alg25d_ckpt_snapshot_words(const Alg25dConfig& cfg, int logical, i64 step);

/// Analytic per-rank communication (critical path, equal blocks): the
/// classical 2.5D cost expression, for the comparison benches.
double alg25d_cost_words(const Alg25dConfig& cfg);

/// Memory words per rank: the c-fold replicated inputs plus the C partial.
double alg25d_memory_words(const Alg25dConfig& cfg);

inline constexpr const char* kPhase25dReplicate = "alg25d_replicate";
inline constexpr const char* kPhase25dSkew = "alg25d_skew";
inline constexpr const char* kPhase25dShift = "alg25d_shift";
inline constexpr const char* kPhase25dGemm = "alg25d_gemm";
inline constexpr const char* kPhase25dReduce = "alg25d_reduce";

}  // namespace camb::mm
