#include "matmul/alg25d.hpp"

#include "collectives/bcast.hpp"
#include "collectives/coll_cost.hpp"
#include "collectives/reduce.hpp"
#include "matmul/local_gemm.hpp"
#include "util/error.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

namespace {

/// Layer-major rank layout: rank = (l * g + i) * g + j.
struct Coords25d {
  i64 i, j, l;
};

Coords25d coords_of(int rank, i64 g) {
  const i64 r = rank;
  return {(r / g) % g, r % g, r / (g * g)};
}

void validate(const Alg25dConfig& cfg, int nprocs) {
  CAMB_CHECK_MSG(cfg.g >= 1 && cfg.c >= 1, "grid dimensions must be >= 1");
  CAMB_CHECK_MSG(cfg.g % cfg.c == 0, "2.5D requires c | g");
  CAMB_CHECK_MSG(cfg.g * cfg.g * cfg.c == nprocs,
                 "machine size must equal g*g*c");
}

}  // namespace

template <typename T, typename Session>
std::vector<T> alg25d_core(Session& session, const Alg25dConfig& cfg, i64 i,
                           i64 j, i64 l, const coll::Comm& depth,
                           const coll::Comm& my_row, const coll::Comm& my_col,
                           std::vector<T> a_held, std::vector<T> b_held) {
  RankCtx& ctx = session.ctx();
  const i64 g = cfg.g, c = cfg.c;
  const i64 w = g / c;  // Cannon steps per layer
  const BlockDist1D d1(cfg.shape.n1, g), d2(cfg.shape.n2, g),
      d3(cfg.shape.n3, g);
  // One tag block per in-layer fiber covers the skew plus every shift round.
  const int row_tags = g > 1 ? my_row.take_tag_block() : 0;
  const int col_tags = g > 1 ? my_col.take_tag_block() : 0;
  CAMB_CHECK_MSG(w < kTagBlockWidth, "grid too large for one tag block");
  const i64 s0 = (i + j + l * w) % g;
  Matrix<T> c_partial(d1.size(i), d3.size(j));

  const i64 t0 = session.resume_step();
  if (session.restored()) {
    // The snapshot at boundary t0 holds the operands of step t0.
    const SnapshotT<T>& snap = session.snapshot();
    CAMB_CHECK(snap.bufs.size() == 3);
    a_held = snap.bufs[0];
    b_held = snap.bufs[1];
    CAMB_CHECK(static_cast<i64>(snap.bufs[2].size()) == c_partial.size());
    std::copy(snap.bufs[2].begin(), snap.bufs[2].end(), c_partial.data());
  } else {
    // 1. Replicate both inputs along the depth fiber.
    ctx.set_phase(kPhase25dReplicate);
    coll::bcast(depth, 0, a_held, d1.size(i) * d2.size(j));
    coll::bcast(depth, 0, b_held, d2.size(i) * d3.size(j));

    // 2. Initial skew: layer l starts at k-offset l*w, so rank (i, j, l)
    // must hold A_{i, s0} and B_{s0, j} with s0 = (i + j + l*w) mod g.
    ctx.set_phase(kPhase25dSkew);
    if (g > 1) {
      const i64 a_dst_col = (j - i - l * w % g + 2 * g) % g;
      my_row.send(static_cast<int>(a_dst_col), row_tags,
                  Buffer::adopt(std::move(a_held)));
      a_held = std::move(my_row.recv(static_cast<int>(s0), row_tags))
                   .template take_as<T>();
      const i64 b_dst_row = (i - j - l * w % g + 2 * g) % g;
      my_col.send(static_cast<int>(b_dst_row), col_tags,
                  Buffer::adopt(std::move(b_held)));
      b_held = std::move(my_col.recv(static_cast<int>(s0), col_tags))
                   .template take_as<T>();
    }
  }

  // 3. w Cannon steps within the layer, covering k-blocks s0 .. s0 + w - 1.
  for (i64 t = t0; t < w; ++t) {
    const i64 s = (s0 + t) % g;
    ctx.set_phase(kPhase25dGemm);
    Matrix<T> a_mat(d1.size(i), d2.size(s));
    CAMB_CHECK(static_cast<i64>(a_held.size()) == a_mat.size());
    std::copy(a_held.begin(), a_held.end(), a_mat.data());
    Matrix<T> b_mat(d2.size(s), d3.size(j));
    CAMB_CHECK(static_cast<i64>(b_held.size()) == b_mat.size());
    std::copy(b_held.begin(), b_held.end(), b_mat.data());
    gemm_accumulate(a_mat, b_mat, c_partial);

    if (t + 1 < w && g > 1) {
      ctx.set_phase(kPhase25dShift);
      const int off = static_cast<int>(t + 1);
      my_row.send(static_cast<int>((j - 1 + g) % g), row_tags + off,
                  Buffer::adopt(std::move(a_held)));
      a_held = std::move(
                   my_row.recv(static_cast<int>((j + 1) % g), row_tags + off))
                   .template take_as<T>();
      my_col.send(static_cast<int>((i - 1 + g) % g), col_tags + off,
                  Buffer::adopt(std::move(b_held)));
      b_held = std::move(
                   my_col.recv(static_cast<int>((i + 1) % g), col_tags + off))
                   .template take_as<T>();
    }

    session.boundary(t + 1, [&] {
      SnapshotT<T> snap;
      snap.bufs = {a_held, b_held,
                   std::vector<T>(c_partial.data(),
                                  c_partial.data() + c_partial.size())};
      return snap;
    });
  }

  // 4. Sum the layers' partials onto layer 0.
  ctx.set_phase(kPhase25dReduce);
  std::vector<T> c_flat(c_partial.data(),
                        c_partial.data() + c_partial.size());
  std::vector<T> c_sum = coll::reduce(depth, 0, std::move(c_flat));
  if (l != 0) c_sum.clear();
  return c_sum;
}

template <typename T, typename Session>
Block2DOutputT<T> alg25d_body(Session& session, const Alg25dConfig& cfg) {
  validate(cfg, session.nprocs());
  const i64 g = cfg.g, c = cfg.c;
  const auto [i, j, l] = coords_of(session.rank(), g);
  const BlockDist1D d1(cfg.shape.n1, g), d2(cfg.shape.n2, g),
      d3(cfg.shape.n3, g);

  // Layer 0 materializes the single input copy.
  std::vector<T> a_held, b_held;
  if (l == 0 && !session.restored()) {
    const auto fill = [&](const BlockChunk& chunk) {
      return cfg.integer_inputs ? fill_chunk_indexed_int<T>(chunk)
                                : fill_chunk_indexed<T>(chunk);
    };
    a_held = fill(full_block(d1, i, d2, j));
    b_held = fill(full_block(d2, i, d3, j));
  }

  // Layer-major layout (l * g + i) * g + j is Grid3{c, g, g} with coords
  // (l, i, j): fiber(0) is the depth fiber (index l), fiber(1) the column
  // comm B shifts along (index i), fiber(2) the in-layer row comm for A
  // (index j) — built in that axis order, as coll::GridComm does.
  const GridMap map(Grid3{c, g, g});
  const coll::Comm depth = session.comm(map.fiber(0, l, i, j));
  const coll::Comm my_col = session.comm(map.fiber(1, l, i, j));
  const coll::Comm my_row = session.comm(map.fiber(2, l, i, j));
  const std::vector<T> c_sum =
      alg25d_core<T>(session, cfg, i, j, l, depth, my_row, my_col,
                     std::move(a_held), std::move(b_held));

  Block2DOutputT<T> out;
  out.row0 = d1.start(i);
  out.col0 = d3.start(j);
  if (l == 0) {
    out.block = Matrix<T>(d1.size(i), d3.size(j));
    CAMB_CHECK(static_cast<i64>(c_sum.size()) == out.block.size());
    std::copy(c_sum.begin(), c_sum.end(), out.block.data());
  }
  return out;
}

#define CAMB_INSTANTIATE(T)                                                 \
  CAMB_INSTANTIATE_BODY(T, Block2DOutputT<T>, alg25d_body, Alg25dConfig)    \
  template std::vector<T> alg25d_core<T, PlainSession<T>>(                  \
      PlainSession<T>&, const Alg25dConfig&, i64, i64, i64,                 \
      const coll::Comm&, const coll::Comm&, const coll::Comm&,              \
      std::vector<T>, std::vector<T>);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

i64 alg25d_ckpt_steps(const Alg25dConfig& cfg) { return cfg.g / cfg.c; }

i64 alg25d_ckpt_snapshot_words(const Alg25dConfig& cfg, int logical,
                               i64 step) {
  const i64 g = cfg.g, c = cfg.c;
  const i64 w = g / c;
  const auto [i, j, l] = coords_of(logical, g);
  const BlockDist1D d1(cfg.shape.n1, g), d2(cfg.shape.n2, g),
      d3(cfg.shape.n3, g);
  const i64 s0 = (i + j + l * w) % g;
  // At boundary `step` the held k-block index is s0 + step after a shift,
  // except the last step, which does not shift.
  const i64 s = step < w ? (s0 + step) % g : (s0 + w - 1) % g;
  return snapshot_wire_words({d1.size(i) * d2.size(s),
                              d2.size(s) * d3.size(j),
                              d1.size(i) * d3.size(j)});
}

i64 alg25d_predicted_recv_words(const Alg25dConfig& cfg, int rank) {
  const i64 g = cfg.g, c = cfg.c;
  const i64 w = g / c;
  const auto [i, j, l] = coords_of(rank, g);
  const BlockDist1D d1(cfg.shape.n1, g), d2(cfg.shape.n2, g),
      d3(cfg.shape.n3, g);
  i64 words = 0;
  // 1. Depth broadcasts: every non-layer-0 rank receives both blocks once.
  if (l != 0) words += d1.size(i) * d2.size(j) + d2.size(i) * d3.size(j);
  // 2. Skew (self-moves are free): A arrives from column s0, B from row s0.
  const i64 s0 = (i + j + l * w) % g;
  if (g > 1) {
    if (s0 != j) words += d1.size(i) * d2.size(s0);
    if (s0 != i) words += d2.size(s0) * d3.size(j);
  }
  // 3. Shifts t = 1 .. w-1 (neighbours, never self for g > 1).
  if (g > 1) {
    for (i64 t = 1; t < w; ++t) {
      const i64 s = (s0 + t) % g;
      words += d1.size(i) * d2.size(s);
      words += d2.size(s) * d3.size(j);
    }
  }
  // 4. Depth reduce (binomial): replicate the reduce() round structure.
  const i64 wc = d1.size(i) * d3.size(j);
  if (c > 1) {
    int top = 1;
    while (top < c) top <<= 1;
    for (int dist = top >> 1; dist >= 1; dist >>= 1) {
      if (l < dist && l + dist < c) words += wc;
    }
  }
  return words;
}

double alg25d_cost_words(const Alg25dConfig& cfg) {
  i64 worst = 0;
  const i64 P = cfg.g * cfg.g * cfg.c;
  for (i64 r = 0; r < P; ++r) {
    worst = std::max(worst,
                     alg25d_predicted_recv_words(cfg, static_cast<int>(r)));
  }
  return static_cast<double>(worst);
}

double alg25d_memory_words(const Alg25dConfig& cfg) {
  const auto g = static_cast<double>(cfg.g);
  const auto n1 = static_cast<double>(cfg.shape.n1);
  const auto n2 = static_cast<double>(cfg.shape.n2);
  const auto n3 = static_cast<double>(cfg.shape.n3);
  // One replicated block of each input plus the C partial, per rank.
  return n1 * n2 / (g * g) + n2 * n3 / (g * g) + n1 * n3 / (g * g);
}

}  // namespace camb::mm
