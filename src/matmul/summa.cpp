#include "matmul/summa.hpp"

#include "collectives/bcast.hpp"
#include "matmul/local_gemm.hpp"
#include "util/error.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

template <typename T, typename Session>
void summa_stage_loop(Session& session, const SummaConfig& cfg,
                      const coll::Comm& my_row, const coll::Comm& my_col,
                      i64 i, i64 j, const std::vector<T>& a_own,
                      const std::vector<T>& b_own, Matrix<T>& c_block) {
  RankCtx& ctx = session.ctx();
  const i64 g = cfg.g;
  const BlockDist1D d1(cfg.shape.n1, g), d2(cfg.shape.n2, g),
      d3(cfg.shape.n3, g);
  for (i64 t = session.resume_step(); t < g; ++t) {
    // A block-column t travels along each row; B block-row t along columns.
    ctx.set_phase(kPhaseSummaBcastA);
    std::vector<T> a_panel = (t == j) ? a_own : std::vector<T>{};
    const i64 a_elems = d1.size(i) * d2.size(t);
    coll::bcast(my_row, static_cast<int>(t), a_panel, a_elems, cfg.bcast,
                cfg.bcast_segments);

    ctx.set_phase(kPhaseSummaBcastB);
    std::vector<T> b_panel = (t == i) ? b_own : std::vector<T>{};
    const i64 b_elems = d2.size(t) * d3.size(j);
    coll::bcast(my_col, static_cast<int>(t), b_panel, b_elems, cfg.bcast,
                cfg.bcast_segments);

    ctx.set_phase(kPhaseSummaGemm);
    Matrix<T> a_mat(d1.size(i), d2.size(t));
    std::copy(a_panel.begin(), a_panel.end(), a_mat.data());
    Matrix<T> b_mat(d2.size(t), d3.size(j));
    std::copy(b_panel.begin(), b_panel.end(), b_mat.data());
    gemm_accumulate(a_mat, b_mat, c_block);

    session.boundary(t + 1, [&] {
      SnapshotT<T> snap;
      snap.bufs = {std::vector<T>(c_block.data(),
                                  c_block.data() + c_block.size())};
      return snap;
    });
  }
}

template <typename T, typename Session>
Block2DOutputT<T> summa_body(Session& session, const SummaConfig& cfg) {
  const i64 g = cfg.g;
  CAMB_CHECK_MSG(g * g == session.nprocs(), "SUMMA machine size must be g*g");
  const i64 i = session.rank() / g;
  const i64 j = session.rank() % g;
  const BlockDist1D d1(cfg.shape.n1, g), d2(cfg.shape.n2, g),
      d3(cfg.shape.n3, g);

  // Owned blocks, generated in place.
  const auto fill = [&](const BlockChunk& chunk) {
    return cfg.integer_inputs ? fill_chunk_indexed_int<T>(chunk)
                              : fill_chunk_indexed<T>(chunk);
  };
  std::vector<T> a_own = fill(full_block(d1, i, d2, j));
  std::vector<T> b_own = fill(full_block(d2, i, d3, j));

  Block2DOutputT<T> out;
  out.row0 = d1.start(i);
  out.col0 = d3.start(j);
  out.block = Matrix<T>(d1.size(i), d3.size(j));
  if (session.restored()) {
    const SnapshotT<T>& snap = session.snapshot();
    CAMB_CHECK(snap.bufs.size() == 1 &&
               static_cast<i64>(snap.bufs[0].size()) == out.block.size());
    std::copy(snap.bufs[0].begin(), snap.bufs[0].end(), out.block.data());
  }

  // The g x g grid is Grid3{g, g, 1}: fiber(0) is this rank's column comm
  // (its index there is i), fiber(1) its row comm (index j), built in the
  // axis order coll::GridComm uses.
  const GridMap map(Grid3{g, g, 1});
  const coll::Comm my_col = session.comm(map.fiber(0, i, j, 0));
  const coll::Comm my_row = session.comm(map.fiber(1, i, j, 0));
  summa_stage_loop<T>(session, cfg, my_row, my_col, i, j, a_own, b_own,
                      out.block);
  return out;
}

#define CAMB_INSTANTIATE(T)                                                 \
  CAMB_INSTANTIATE_BODY(T, Block2DOutputT<T>, summa_body, SummaConfig)      \
  template void summa_stage_loop<T, PlainSession<T>>(                       \
      PlainSession<T>&, const SummaConfig&, const coll::Comm&,              \
      const coll::Comm&, i64, i64, const std::vector<T>&,                   \
      const std::vector<T>&, Matrix<T>&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

i64 summa_ckpt_steps(const SummaConfig& cfg) { return cfg.g; }

i64 summa_ckpt_snapshot_words(const SummaConfig& cfg, int logical, i64 step) {
  (void)step;  // the C block is the whole snapshot at every stage
  const i64 g = cfg.g;
  const BlockDist1D d1(cfg.shape.n1, g), d3(cfg.shape.n3, g);
  return snapshot_wire_words({d1.size(logical / g) * d3.size(logical % g)});
}

i64 summa_predicted_recv_words(const SummaConfig& cfg, int rank) {
  const i64 g = cfg.g;
  const i64 i = rank / g;
  const i64 j = rank % g;
  const BlockDist1D d1(cfg.shape.n1, g), d2(cfg.shape.n2, g),
      d3(cfg.shape.n3, g);
  i64 words = 0;
  for (i64 t = 0; t < g; ++t) {
    if (t != j && g > 1) words += d1.size(i) * d2.size(t);  // A panel
    if (t != i && g > 1) words += d2.size(t) * d3.size(j);  // B panel
  }
  return words;
}

}  // namespace camb::mm
