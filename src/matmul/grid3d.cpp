#include "matmul/grid3d.hpp"

#include <optional>

#include "collectives/coll_cost.hpp"
#include "matmul/local_gemm.hpp"
#include "util/error.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

namespace {

struct Dists {
  BlockDist1D d1, d2, d3;
  explicit Dists(const Grid3dConfig& cfg)
      : d1(cfg.shape.n1, cfg.grid.p1),
        d2(cfg.shape.n2, cfg.grid.p2),
        d3(cfg.shape.n3, cfg.grid.p3) {}
};

BlockChunk make_chunk(const BlockDist1D& row_dist, i64 row_idx,
                      const BlockDist1D& col_dist, i64 col_idx,
                      i64 fiber_size, i64 fiber_idx) {
  BlockChunk chunk;
  chunk.row0 = row_dist.start(row_idx);
  chunk.col0 = col_dist.start(col_idx);
  chunk.rows = row_dist.size(row_idx);
  chunk.cols = col_dist.size(col_idx);
  const BlockDist1D flat(chunk.rows * chunk.cols, fiber_size);
  chunk.flat_start = flat.start(fiber_idx);
  chunk.flat_size = flat.size(fiber_idx);
  return chunk;
}

}  // namespace

Grid3dLayout grid3d_layout(const Grid3dConfig& cfg, int rank) {
  const GridMap map(cfg.grid);
  const auto [q1, q2, q3] = map.coords_of(rank);
  const Dists dists(cfg);
  Grid3dLayout layout;
  // A_{q1 q2} spread across the p3 fiber; B_{q2 q3} across p1; C_{q1 q3}
  // across p2 (§5's initial/final distributions).
  layout.a = make_chunk(dists.d1, q1, dists.d2, q2, cfg.grid.p3, q3);
  layout.b = make_chunk(dists.d2, q2, dists.d3, q3, cfg.grid.p1, q1);
  layout.c = make_chunk(dists.d1, q1, dists.d3, q3, cfg.grid.p2, q2);
  layout.a_counts = BlockDist1D(layout.a.block_size(), cfg.grid.p3).counts();
  layout.b_counts = BlockDist1D(layout.b.block_size(), cfg.grid.p1).counts();
  layout.c_counts = BlockDist1D(layout.c.block_size(), cfg.grid.p2).counts();
  return layout;
}

template <typename T, typename Session>
Grid3dRankOutputT<T> grid3d_core(Session& session, const Grid3dConfig& cfg,
                                 const Grid3dLayout& layout,
                                 const coll::Comm& fiber_a,
                                 const coll::Comm& fiber_b,
                                 const coll::Comm& fiber_c,
                                 std::vector<T> a_local,
                                 std::vector<T> b_local) {
  RankCtx& ctx = session.ctx();
  const i64 elem_bytes = ScalarTraits<T>::elem_bytes;
  const i64 t0 = session.resume_step();
  std::vector<T> a_flat, b_flat;
  Grid3dRankOutputT<T> out;
  out.c_chunk = layout.c;
  if (session.restored()) {
    const SnapshotT<T>& snap = session.snapshot();
    if (t0 >= 3) {
      out.c_data = snap.bufs.at(0);  // a caller's later steps append after C
    } else {
      a_flat = snap.bufs.at(0);
      if (t0 == 2) b_flat = snap.bufs.at(1);
    }
  }

  // The gathered A and B blocks stay live through the reduce-scatter, the
  // product D from the gemm on: nested working sets in the run scalar's
  // width (a restored block is live from the resume on).
  std::optional<camb::WorkingSet> a_ws, b_ws;
  if (t0 < 3) a_ws.emplace(ctx, layout.a.block_size(), elem_bytes);
  if (t0 < 1) {
    // Line 3: All-Gather A across the fiber (q1, q2, :).
    ctx.set_phase(kPhaseAllgatherA);
    a_flat = coll::allgather(fiber_a, layout.a_counts, a_local, cfg.allgather);
    session.boundary(1, [&] { return SnapshotT<T>{.bufs = {a_flat}}; });
  }
  if (t0 < 3) b_ws.emplace(ctx, layout.b.block_size(), elem_bytes);
  if (t0 < 2) {
    // Line 4: All-Gather B across the fiber (:, q2, q3).
    ctx.set_phase(kPhaseAllgatherB);
    b_flat = coll::allgather(fiber_b, layout.b_counts, b_local, cfg.allgather);
    session.boundary(2,
                     [&] { return SnapshotT<T>{.bufs = {a_flat, b_flat}}; });
  }
  if (t0 < 3) {
    // Line 6: local multiply D = A_{q1 q2} * B_{q2 q3}.
    ctx.set_phase(kPhaseLocalGemm);
    const camb::WorkingSet d_ws(ctx, layout.c.block_size(), elem_bytes);
    Matrix<T> a_block(layout.a.rows, layout.a.cols);
    std::copy(a_flat.begin(), a_flat.end(), a_block.data());
    Matrix<T> b_block(layout.b.rows, layout.b.cols);
    std::copy(b_flat.begin(), b_flat.end(), b_block.data());
    const Matrix<T> d_block = gemm(a_block, b_block);

    // Line 8: Reduce-Scatter D across the fiber (q1, :, q3).
    ctx.set_phase(kPhaseReduceScatterC);
    std::vector<T> d_flat(d_block.data(), d_block.data() + d_block.size());
    out.c_data = coll::reduce_scatter(fiber_c, layout.c_counts, d_flat,
                                      cfg.reduce_scatter);
    CAMB_CHECK(static_cast<i64>(out.c_data.size()) == layout.c.flat_size);
    session.boundary(3, [&] { return SnapshotT<T>{.bufs = {out.c_data}}; });
  }
  return out;
}

template <typename T, typename Session>
Grid3dRankOutputT<T> grid3d_body(Session& session, const Grid3dConfig& cfg) {
  CAMB_CHECK_MSG(cfg.grid.total() == session.nprocs(),
                 "grid size must equal the machine size");
  const int me = session.rank();
  const Grid3dLayout layout = grid3d_layout(cfg, me);
  const GridMap map(cfg.grid);
  const auto [q1, q2, q3] = map.coords_of(me);
  // The three fibers in axis order, as coll::GridComm builds them.
  const coll::Comm fiber_b = session.comm(map.fiber(0, q1, q2, q3));
  const coll::Comm fiber_c = session.comm(map.fiber(1, q1, q2, q3));
  const coll::Comm fiber_a = session.comm(map.fiber(2, q1, q2, q3));

  const auto fill = [&](const BlockChunk& chunk) {
    return cfg.integer_inputs ? fill_chunk_indexed_int<T>(chunk)
                              : fill_chunk_indexed<T>(chunk);
  };
  return grid3d_core<T>(session, cfg, layout, fiber_a, fiber_b, fiber_c,
                        fill(layout.a), fill(layout.b));
}

#define CAMB_INSTANTIATE(T)                                                  \
  CAMB_INSTANTIATE_BODY(T, Grid3dRankOutputT<T>, grid3d_body, Grid3dConfig)  \
  template Grid3dRankOutputT<T> grid3d_core<T, PlainSession<T>>(             \
      PlainSession<T>&, const Grid3dConfig&, const Grid3dLayout&,            \
      const coll::Comm&, const coll::Comm&, const coll::Comm&,               \
      std::vector<T>, std::vector<T>);                                       \
  template Grid3dRankOutputT<T> grid3d_core<T, ckpt::SessionT<T>>(           \
      ckpt::SessionT<T>&, const Grid3dConfig&, const Grid3dLayout&,          \
      const coll::Comm&, const coll::Comm&, const coll::Comm&,               \
      std::vector<T>, std::vector<T>);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

i64 grid3d_ckpt_steps(const Grid3dConfig& cfg) {
  (void)cfg;
  return 3;
}

i64 grid3d_ckpt_snapshot_words(const Grid3dConfig& cfg, int logical,
                               i64 step) {
  const Grid3dLayout layout = grid3d_layout(cfg, logical);
  if (step == 1) return snapshot_wire_words({layout.a.block_size()});
  if (step == 2) {
    return snapshot_wire_words(
        {layout.a.block_size(), layout.b.block_size()});
  }
  return snapshot_wire_words({layout.c.flat_size});
}

i64 grid3d_predicted_recv_words(const Grid3dConfig& cfg, int rank) {
  const GridMap map(cfg.grid);
  const auto [q1, q2, q3] = map.coords_of(rank);
  const Grid3dLayout layout = grid3d_layout(cfg, rank);
  i64 words = 0;
  words += coll::allgather_recv_words_exact(layout.a_counts,
                                            static_cast<int>(q3), cfg.allgather);
  words += coll::allgather_recv_words_exact(layout.b_counts,
                                            static_cast<int>(q1), cfg.allgather);
  words += coll::reduce_scatter_recv_words_exact(
      layout.c_counts, static_cast<int>(q2), cfg.reduce_scatter);
  return words;
}

i64 grid3d_predicted_critical_recv_words(const Grid3dConfig& cfg) {
  i64 worst = 0;
  const i64 P = cfg.grid.total();
  for (i64 r = 0; r < P; ++r) {
    worst = std::max(worst,
                     grid3d_predicted_recv_words(cfg, static_cast<int>(r)));
  }
  return worst;
}

}  // namespace camb::mm
