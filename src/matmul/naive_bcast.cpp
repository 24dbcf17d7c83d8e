#include "matmul/naive_bcast.hpp"

#include <numeric>

#include "collectives/bcast.hpp"
#include "collectives/coll_cost.hpp"
#include "collectives/comm.hpp"
#include "collectives/gather_scatter.hpp"
#include "matmul/local_gemm.hpp"
#include "util/error.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

template <typename T, typename Session>
Block2DOutputT<T> naive_bcast_body(Session& session,
                                   const NaiveBcastConfig& cfg) {
  RankCtx& ctx = session.ctx();
  const int p = session.nprocs();
  const int me = session.rank();
  std::vector<int> everyone(static_cast<std::size_t>(p));
  std::iota(everyone.begin(), everyone.end(), 0);
  const coll::Comm world = session.comm(std::move(everyone));
  const Shape& s = cfg.shape;
  const BlockDist1D rows(s.n1, p);

  std::vector<T> a_flat, b_flat, c_flat;
  const i64 t0 = session.resume_step();
  if (session.restored()) {
    const SnapshotT<T>& snap = session.snapshot();
    if (t0 == 1) {
      a_flat = snap.bufs.at(0);
    } else if (t0 == 2) {
      a_flat = snap.bufs.at(0);
      b_flat = snap.bufs.at(1);
    } else {
      CAMB_CHECK(t0 == 3);
      c_flat = snap.bufs.at(0);
    }
  }

  for (i64 step = t0; step < 3; ++step) {
    if (step == 0) {
      // Rank 0 materializes both inputs; everyone receives full copies.
      ctx.set_phase(kPhaseNaiveBcast);
      if (me == 0) {
        BlockChunk a_all{0, 0, s.n1, s.n2, 0, s.size_a()};
        a_flat = fill_chunk_indexed<T>(a_all);
      }
      coll::bcast(world, 0, a_flat, s.size_a());
    } else if (step == 1) {
      ctx.set_phase(kPhaseNaiveBcast);
      if (me == 0) {
        BlockChunk b_all{0, 0, s.n2, s.n3, 0, s.size_b()};
        b_flat = fill_chunk_indexed<T>(b_all);
      }
      coll::bcast(world, 0, b_flat, s.size_b());
    } else {
      // Each rank computes its row slice of C.
      ctx.set_phase(kPhaseNaiveGemm);
      Matrix<T> a_mine(rows.size(me), s.n2);
      std::copy(a_flat.begin() + rows.start(me) * s.n2,
                a_flat.begin() + rows.end(me) * s.n2, a_mine.data());
      Matrix<T> b_full(s.n2, s.n3);
      std::copy(b_flat.begin(), b_flat.end(), b_full.data());
      const Matrix<T> c_slice = gemm(a_mine, b_full);
      c_flat.assign(c_slice.data(), c_slice.data() + c_slice.size());
    }
    session.boundary(step + 1, [&] {
      SnapshotT<T> snap;
      if (step == 0) {
        snap.bufs = {a_flat};
      } else if (step == 1) {
        snap.bufs = {a_flat, b_flat};
      } else {
        snap.bufs = {c_flat};
      }
      return snap;
    });
  }

  Block2DOutputT<T> out;
  out.row0 = rows.start(me);
  out.col0 = 0;
  out.block = Matrix<T>(rows.size(me), s.n3);
  CAMB_CHECK(static_cast<i64>(c_flat.size()) == out.block.size());
  std::copy(c_flat.begin(), c_flat.end(), out.block.data());

  // Gather the slices onto rank 0 (the "one copy of the output" finale).
  ctx.set_phase(kPhaseNaiveGather);
  std::vector<i64> counts(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    counts[static_cast<std::size_t>(r)] = rows.size(r) * s.n3;
  }
  coll::gather(world, 0, counts, c_flat);
  return out;
}

#define CAMB_INSTANTIATE(T)                                            \
  CAMB_INSTANTIATE_BODY(T, Block2DOutputT<T>, naive_bcast_body,         \
                        NaiveBcastConfig)
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

i64 naive_bcast_ckpt_steps(const NaiveBcastConfig& cfg) {
  (void)cfg;
  return 3;
}

i64 naive_bcast_ckpt_snapshot_words(const NaiveBcastConfig& cfg, int logical,
                                    int nprocs, i64 step) {
  const Shape& s = cfg.shape;
  if (step == 1) return snapshot_wire_words({s.size_a()});
  if (step == 2) return snapshot_wire_words({s.size_a(), s.size_b()});
  const BlockDist1D rows(s.n1, nprocs);
  return snapshot_wire_words({rows.size(logical) * s.n3});
}

i64 naive_bcast_predicted_recv_words(const NaiveBcastConfig& cfg, int rank,
                                     int nprocs) {
  const Shape& s = cfg.shape;
  if (nprocs == 1) return 0;
  const BlockDist1D rows(s.n1, nprocs);
  if (rank == 0) {
    // Root receives every other rank's C slice.
    return (s.n1 - rows.size(0)) * s.n3;
  }
  return s.size_a() + s.size_b();
}

}  // namespace camb::mm
