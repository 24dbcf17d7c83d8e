#include "matmul/grid3d_agarwal.hpp"

#include "collectives/alltoall.hpp"
#include "collectives/coll_cost.hpp"
#include "matmul/local_gemm.hpp"
#include "util/error.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

template <typename T, typename Session>
Grid3dRankOutputT<T> grid3d_agarwal_body(Session& session,
                                         const Grid3dAgarwalConfig& cfg) {
  RankCtx& ctx = session.ctx();
  CAMB_CHECK_MSG(cfg.grid.total() == session.nprocs(),
                 "grid size must equal the machine size");
  const int me = session.rank();
  const Grid3dConfig base{cfg.shape, cfg.grid, cfg.allgather,
                          coll::ReduceScatterAlgo::kAuto};
  const Grid3dLayout layout = grid3d_layout(base, me);
  const GridMap map(cfg.grid);
  const auto [q1, q2, q3] = map.coords_of(me);
  // The three fibers in axis order, as coll::GridComm builds them.
  const coll::Comm fiber_b = session.comm(map.fiber(0, q1, q2, q3));
  const coll::Comm fiber_c = session.comm(map.fiber(1, q1, q2, q3));
  const coll::Comm fiber_a = session.comm(map.fiber(2, q1, q2, q3));

  const i64 t0 = session.resume_step();
  std::vector<T> a_flat, b_flat;
  Grid3dRankOutputT<T> out;
  out.c_chunk = layout.c;
  if (session.restored()) {
    const SnapshotT<T>& snap = session.snapshot();
    if (t0 == 3) {
      out.c_data = snap.bufs.at(0);
    } else {
      a_flat = snap.bufs.at(0);
      if (t0 == 2) b_flat = snap.bufs.at(1);
    }
  }

  // Lines 3-4: identical to Algorithm 1.
  if (t0 < 1) {
    ctx.set_phase(kPhaseAllgatherA);
    a_flat = coll::allgather(fiber_a, layout.a_counts,
                             fill_chunk_indexed<T>(layout.a), cfg.allgather);
    session.boundary(1, [&] { return SnapshotT<T>{.bufs = {a_flat}}; });
  }
  if (t0 < 2) {
    ctx.set_phase(kPhaseAllgatherB);
    b_flat = coll::allgather(fiber_b, layout.b_counts,
                             fill_chunk_indexed<T>(layout.b), cfg.allgather);
    session.boundary(2,
                     [&] { return SnapshotT<T>{.bufs = {a_flat, b_flat}}; });
  }
  if (t0 < 3) {
    ctx.set_phase(kPhaseLocalGemm);
    Matrix<T> a_block(layout.a.rows, layout.a.cols);
    std::copy(a_flat.begin(), a_flat.end(), a_block.data());
    Matrix<T> b_block(layout.b.rows, layout.b.cols);
    std::copy(b_flat.begin(), b_flat.end(), b_block.data());
    const Matrix<T> d_block = gemm(a_block, b_block);

    // Line 8 the 1995 way: All-to-All the personalized D segments (pairwise
    // handles the near-equal counts; Bruck requires equal blocks), sum
    // after.
    ctx.set_phase(kPhaseAlltoallC);
    const int p2 = static_cast<int>(cfg.grid.p2);
    std::vector<std::vector<T>> pieces(static_cast<std::size_t>(p2));
    for (int t = 0; t < p2; ++t) {
      const i64 off = coll::counts_offset(layout.c_counts, t);
      const i64 len = layout.c_counts[static_cast<std::size_t>(t)];
      pieces[static_cast<std::size_t>(t)].assign(d_block.data() + off,
                                                 d_block.data() + off + len);
    }
    const std::vector<std::vector<T>> received =
        coll::alltoall(fiber_c, pieces, cfg.alltoall);
    out.c_data.assign(static_cast<std::size_t>(layout.c.flat_size),
                      ScalarTraits<T>::zero());
    for (const auto& piece : received) {
      CAMB_CHECK(static_cast<i64>(piece.size()) == layout.c.flat_size);
      for (std::size_t j = 0; j < piece.size(); ++j) out.c_data[j] += piece[j];
    }
    session.boundary(3, [&] { return SnapshotT<T>{.bufs = {out.c_data}}; });
  }
  return out;
}

#define CAMB_INSTANTIATE(T)                                    \
  CAMB_INSTANTIATE_BODY(T, Grid3dRankOutputT<T>, grid3d_agarwal_body, \
                        Grid3dAgarwalConfig)
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

i64 grid3d_agarwal_ckpt_steps(const Grid3dAgarwalConfig& cfg) {
  (void)cfg;
  return 3;
}

i64 grid3d_agarwal_ckpt_snapshot_words(const Grid3dAgarwalConfig& cfg,
                                       int logical, i64 step) {
  const Grid3dConfig base{cfg.shape, cfg.grid, cfg.allgather,
                          coll::ReduceScatterAlgo::kAuto};
  const Grid3dLayout layout = grid3d_layout(base, logical);
  if (step == 1) return snapshot_wire_words({layout.a.block_size()});
  if (step == 2) {
    return snapshot_wire_words(
        {layout.a.block_size(), layout.b.block_size()});
  }
  return snapshot_wire_words({layout.c.flat_size});
}

i64 grid3d_agarwal_predicted_recv_words(const Grid3dAgarwalConfig& cfg,
                                        int rank) {
  const GridMap map(cfg.grid);
  const auto [q1, q2, q3] = map.coords_of(rank);
  const Grid3dConfig base{cfg.shape, cfg.grid, cfg.allgather,
                          coll::ReduceScatterAlgo::kAuto};
  const Grid3dLayout layout = grid3d_layout(base, rank);
  i64 words = 0;
  words += coll::allgather_recv_words_exact(layout.a_counts,
                                            static_cast<int>(q3), cfg.allgather);
  words += coll::allgather_recv_words_exact(layout.b_counts,
                                            static_cast<int>(q1), cfg.allgather);
  // All-to-All of the rank's own segment size from every fiber peer.
  const i64 own = layout.c_counts[static_cast<std::size_t>(q2)];
  if (cfg.alltoall == coll::AlltoallAlgo::kPairwise) {
    words += (cfg.grid.p2 - 1) * own;
  } else {
    words += coll::alltoall_bruck_recv_words(static_cast<int>(cfg.grid.p2), own);
  }
  return words;
}

}  // namespace camb::mm
