#include "matmul/elastic.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "machine/faults.hpp"
#include "planner/planner.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

i64 elastic_shrink_recv_words_exact(int nprocs, int max_failures,
                                    int pre_failures) {
  const i64 alive = nprocs - pre_failures;
  if (alive <= 1) return 0;
  // Round 0 floods to the full membership, but only alive peers deliver;
  // later rounds flood among the discovered-alive only.  Either way each
  // participant takes (alive - 1) views of 2 ceil(P/32) mask words per round.
  return static_cast<i64>(max_failures + 1) * (alive - 1) * 2 *
         ((nprocs + 31) / 32);
}

namespace {

/// Append the global row-major spans of a full rows×cols block of a matrix
/// with `ncols` columns, coalescing spans that happen to be contiguous
/// (whole-width blocks collapse to one span).
void append_block_spans(coll::PanelSet& set, int matrix,
                        const BlockDist1D& rows, i64 ri,
                        const BlockDist1D& cols, i64 ci, i64 ncols) {
  const i64 r0 = rows.start(ri), nr = rows.size(ri);
  const i64 c0 = cols.start(ci), nc = cols.size(ci);
  if (nr <= 0 || nc <= 0) return;
  for (i64 r = 0; r < nr; ++r) {
    const i64 start = (r0 + r) * ncols + c0;
    if (!set.empty() && set.back().matrix == matrix &&
        set.back().end() == start) {
      set.back().len += nc;
    } else {
      set.push_back({matrix, start, nc});
    }
  }
}

/// Append the spans of a fiber chunk: the block-flat window
/// [flat_start, flat_start + flat_size) of the rows×cols block at
/// (row0, col0), row by row.  Ascending block-flat order is ascending
/// global row-major order, which is what makes the chunk's local storage
/// a PanelSet holding.
void append_chunk_spans(coll::PanelSet& set, int matrix, const BlockChunk& ch,
                        i64 ncols) {
  const i64 lo = ch.flat_start, hi = ch.flat_start + ch.flat_size;
  for (i64 r = 0; r < ch.rows; ++r) {
    const i64 row_lo = r * ch.cols, row_hi = row_lo + ch.cols;
    const i64 a = std::max(lo, row_lo), b = std::min(hi, row_hi);
    if (a >= b) continue;
    const i64 start = (ch.row0 + r) * ncols + ch.col0 + (a - row_lo);
    if (!set.empty() && set.back().matrix == matrix &&
        set.back().end() == start) {
      set.back().len += b - a;
    } else {
      set.push_back({matrix, start, b - a});
    }
  }
}

/// The position-pure regenerator: global cells of A (n1×n2) or B (n2×n3)
/// via a whole-matrix chunk window, so regenerated values are bit-identical
/// to what the original owner filled.
template <typename T>
coll::RegridFill<T> make_elastic_fill(const Shape& shape, bool integer) {
  return [shape, integer](int matrix, i64 start, i64 len, T* out) {
    BlockChunk chunk;
    chunk.row0 = 0;
    chunk.col0 = 0;
    chunk.rows = matrix == 0 ? shape.n1 : shape.n2;
    chunk.cols = matrix == 0 ? shape.n2 : shape.n3;
    chunk.flat_start = start;
    chunk.flat_size = len;
    const std::vector<T> vals = integer ? fill_chunk_indexed_int<T>(chunk)
                                        : fill_chunk_indexed<T>(chunk);
    std::copy(vals.begin(), vals.end(), out);
  };
}

/// Values of one matrix's panels in canonical order.
template <typename T>
std::vector<T> fill_panels(const coll::RegridFill<T>& fill,
                           const coll::PanelSet& panels, int matrix) {
  i64 total = 0;
  for (const coll::PanelSpan& s : panels) {
    if (s.matrix == matrix) total += s.len;
  }
  std::vector<T> out(static_cast<std::size_t>(total));
  i64 off = 0;
  for (const coll::PanelSpan& s : panels) {
    if (s.matrix != matrix) continue;
    fill(matrix, s.start, s.len, out.data() + off);
    off += s.len;
  }
  return out;
}

template <typename T>
void push_chunk_tile(const BlockChunk& chunk, std::vector<T> data,
                     ElasticRankOutputT<T>& out) {
  if (chunk.flat_size <= 0) return;
  CAMB_CHECK(static_cast<i64>(data.size()) == chunk.flat_size);
  out.c_chunks.push_back(chunk);
  out.c_data.push_back(std::move(data));
}

template <typename T>
void push_block_tile(const Block2DOutputT<T>& blk, ElasticRankOutputT<T>& out) {
  if (blk.block.size() == 0) return;
  BlockChunk chunk;
  chunk.row0 = blk.row0;
  chunk.col0 = blk.col0;
  chunk.rows = blk.block.rows();
  chunk.cols = blk.block.cols();
  chunk.flat_start = 0;
  chunk.flat_size = chunk.rows * chunk.cols;
  push_chunk_tile(chunk,
                  std::vector<T>(blk.block.data(),
                                 blk.block.data() + blk.block.size()),
                  out);
}

/// One zero-word probe round on `comm`: send to every peer, then wait out
/// every peer's probe (infinite deadline — failure, never a hang).  Returns
/// false iff some peer is dead or has deviated from this tag band, in which
/// case the caller enters (or retries) recovery.  All peers are drained
/// even after a miss so healthy probes never linger as debris.
bool probe_round(const coll::Comm& comm, const char* phase, int tag) {
  RankCtx& ctx = comm.ctx();
  ctx.set_phase(phase);
  const int me = comm.my_index();
  for (int s = 0; s < comm.size(); ++s) {
    if (s != me) comm.send(s, tag, Buffer{});
  }
  bool ok = true;
  constexpr double kForever = std::numeric_limits<double>::infinity();
  for (int s = 0; s < comm.size(); ++s) {
    if (s == me) continue;
    if (!ctx.recv_timed(comm.rank_at(s), tag, kForever)) ok = false;
  }
  return ok;
}

/// The regrid agreement: old panels are the attempt-0 placement of every
/// machine rank (a partition of A and B); new panels are the re-planned
/// placement of the first `nact` survivors; alive marks who still holds
/// old panels (retired and crashed ranks do not — their cells regenerate).
template <typename Traits>
coll::RegridPlan make_regrid_plan(const typename Traits::Config& base,
                                  const typename Traits::Config& ncfg,
                                  const std::vector<int>& survivors, i64 nact,
                                  int nprocs) {
  coll::RegridPlan plan;
  plan.old_panels.resize(static_cast<std::size_t>(nprocs));
  plan.new_panels.resize(static_cast<std::size_t>(nprocs));
  plan.alive.assign(static_cast<std::size_t>(nprocs), 0);
  for (int r = 0; r < nprocs; ++r) {
    plan.old_panels[static_cast<std::size_t>(r)] = Traits::panels(base, r);
  }
  for (std::size_t s = 0; s < survivors.size(); ++s) {
    const auto m = static_cast<std::size_t>(survivors[s]);
    plan.alive[m] = 1;
    if (static_cast<i64>(s) < nact) {
      plan.new_panels[m] = Traits::panels(ncfg, static_cast<int>(s));
    }
  }
  return plan;
}

struct SummaTraits {
  using Config = SummaConfig;
  static i64 active_ranks(const Config& c) { return c.g * c.g; }
  static core::Grid3 grid_of(const Config& c) { return {c.g, c.g, 1}; }
  static Config plan_at(const Config& base, i64 maxp) {
    return summa_plan_at(base, maxp);
  }
  static coll::PanelSet panels(const Config& c, int logical) {
    return summa_panels(c, logical);
  }
  static i64 exec_recv_elems(const Config& c, int logical) {
    return summa_predicted_recv_words(c, logical);
  }

  template <typename T>
  static void run_base(RankCtx& ctx, const Config& cfg,
                       ElasticRankOutputT<T>& out) {
    push_block_tile(summa_rank<T>(ctx, cfg), out);
  }

  template <typename T>
  static void exec(RankCtx& ctx, const Config& ncfg,
                   const std::vector<int>& actives, int L, std::vector<T> a,
                   std::vector<T> b, ElasticRankOutputT<T>& out) {
    const i64 g = ncfg.g;
    const i64 i = L / g, j = L % g;
    std::vector<int> row_m, col_m;
    for (i64 v = 0; v < g; ++v) {
      row_m.push_back(actives[static_cast<std::size_t>(i * g + v)]);
      col_m.push_back(actives[static_cast<std::size_t>(v * g + j)]);
    }
    const coll::Comm my_row = coll::Comm::recovery(ctx, row_m);
    const coll::Comm my_col = coll::Comm::recovery(ctx, col_m);
    const BlockDist1D d1(ncfg.shape.n1, g), d3(ncfg.shape.n3, g);
    Block2DOutputT<T> blk;
    blk.row0 = d1.start(i);
    blk.col0 = d3.start(j);
    blk.block = Matrix<T>(d1.size(i), d3.size(j));
    PlainSession<T> session(ctx);
    summa_stage_loop<T>(session, ncfg, my_row, my_col, i, j, a, b, blk.block);
    push_block_tile(blk, out);
  }
};

struct Grid3dTraits {
  using Config = Grid3dConfig;
  static i64 active_ranks(const Config& c) { return c.grid.total(); }
  static core::Grid3 grid_of(const Config& c) { return c.grid; }
  static Config plan_at(const Config& base, i64 maxp) {
    return grid3d_plan_at(base, maxp);
  }
  static coll::PanelSet panels(const Config& c, int logical) {
    return grid3d_panels(c, logical);
  }
  static i64 exec_recv_elems(const Config& c, int logical) {
    return grid3d_predicted_recv_words(c, logical);
  }

  template <typename T>
  static void run_base(RankCtx& ctx, const Config& cfg,
                       ElasticRankOutputT<T>& out) {
    Grid3dRankOutputT<T> res = grid3d_rank<T>(ctx, cfg);
    push_chunk_tile(res.c_chunk, std::move(res.c_data), out);
  }

  template <typename T>
  static void exec(RankCtx& ctx, const Config& ncfg,
                   const std::vector<int>& actives, int L, std::vector<T> a,
                   std::vector<T> b, ElasticRankOutputT<T>& out) {
    const GridMap map(ncfg.grid);
    const auto [q1, q2, q3] = map.coords_of(L);
    const auto to_machine = [&](std::vector<int> logicals) {
      for (int& r : logicals) r = actives[static_cast<std::size_t>(r)];
      return logicals;
    };
    // Fibers in axis order, mirroring GridComm's construction sequence so
    // the recovery leases line up across actives.
    const coll::Comm f0 =
        coll::Comm::recovery(ctx, to_machine(map.fiber(0, q1, q2, q3)));
    const coll::Comm f1 =
        coll::Comm::recovery(ctx, to_machine(map.fiber(1, q1, q2, q3)));
    const coll::Comm f2 =
        coll::Comm::recovery(ctx, to_machine(map.fiber(2, q1, q2, q3)));
    const Grid3dLayout layout = grid3d_layout(ncfg, L);
    PlainSession<T> session(ctx);
    Grid3dRankOutputT<T> res = grid3d_core<T>(
        session, ncfg, layout, f2, f0, f1, std::move(a), std::move(b));
    push_chunk_tile(res.c_chunk, std::move(res.c_data), out);
  }
};

struct Alg25dTraits {
  using Config = Alg25dConfig;
  static i64 active_ranks(const Config& c) { return c.g * c.g * c.c; }
  static core::Grid3 grid_of(const Config& c) { return {c.c, c.g, c.g}; }
  static Config plan_at(const Config& base, i64 maxp) {
    return alg25d_plan_at(base, maxp);
  }
  static coll::PanelSet panels(const Config& c, int logical) {
    return alg25d_panels(c, logical);
  }
  static i64 exec_recv_elems(const Config& c, int logical) {
    return alg25d_predicted_recv_words(c, logical);
  }

  template <typename T>
  static void run_base(RankCtx& ctx, const Config& cfg,
                       ElasticRankOutputT<T>& out) {
    push_block_tile(alg25d_rank<T>(ctx, cfg), out);
  }

  template <typename T>
  static void exec(RankCtx& ctx, const Config& ncfg,
                   const std::vector<int>& actives, int L, std::vector<T> a,
                   std::vector<T> b, ElasticRankOutputT<T>& out) {
    const GridMap map(core::Grid3{ncfg.c, ncfg.g, ncfg.g});
    const auto [l, i, j] = map.coords_of(L);
    const auto to_machine = [&](std::vector<int> logicals) {
      for (int& r : logicals) r = actives[static_cast<std::size_t>(r)];
      return logicals;
    };
    const coll::Comm depth =
        coll::Comm::recovery(ctx, to_machine(map.fiber(0, l, i, j)));
    const coll::Comm my_col =
        coll::Comm::recovery(ctx, to_machine(map.fiber(1, l, i, j)));
    const coll::Comm my_row =
        coll::Comm::recovery(ctx, to_machine(map.fiber(2, l, i, j)));
    PlainSession<T> session(ctx);
    std::vector<T> c_sum =
        alg25d_core<T>(session, ncfg, i, j, l, depth, my_row, my_col,
                       std::move(a), std::move(b));
    if (l != 0) return;
    const BlockDist1D d1(ncfg.shape.n1, ncfg.g), d3(ncfg.shape.n3, ncfg.g);
    push_chunk_tile(full_block(d1, i, d3, j), std::move(c_sum), out);
  }
};

/// The elastic driver (identical for the three algorithms modulo Traits).
/// See elastic.hpp for the protocol narrative; the invariants that make it
/// safe are marked inline.
template <typename Traits, typename T>
ElasticRankOutputT<T> elastic_rank_impl(RankCtx& ctx,
                                        typename Traits::Config cfg,
                                        const ElasticConfig& ecfg) {
  // Integer-valued inputs whenever T rounds: sums become exact and
  // order-independent, so attempt-0 tiles and any new-grid tiles agree
  // bit for bit (the mixed retire/recover case depends on this).
  if constexpr (!ScalarTraits<T>::exact) cfg.integer_inputs = true;
  const int nprocs = ctx.nprocs();
  const int me = ctx.rank();
  CAMB_CHECK_MSG(Traits::active_ranks(cfg) == nprocs,
                 "elastic: base grid must cover the machine");
  CAMB_CHECK_MSG(ecfg.max_failures >= 0 && ecfg.max_failures <= 30,
                 "elastic: max_failures must be in [0, 30] (tag-band budget)");

  // Attempt-0 holdings, kept for the lifetime of the run: every recovery
  // round regrids from the ORIGINAL placement, so the migration bill is a
  // closed form of the failed set alone.
  const auto fill = make_elastic_fill<T>(cfg.shape, cfg.integer_inputs);
  const coll::PanelSet my_panels = Traits::panels(cfg, me);
  const std::vector<T> old_a = fill_panels<T>(fill, my_panels, 0);
  const std::vector<T> old_b = fill_panels<T>(fill, my_panels, 1);

  ElasticRankOutputT<T> out;
  bool clean = false;
  {
    // World comm first (lease #1 everywhere), probe tags up front.
    coll::Comm world = coll::Comm::world(ctx);
    const int tag_a = world.take_tag_block();
    const int tag_b = world.take_tag_block();
    const int tag_done = world.take_tag_block();
    try {
      // Two enlistment rounds: a rank that dies in round A sends no round-B
      // OK, so entry into recovery is unanimous before any data moves.
      if (probe_round(world, kPhaseElasticEnlist, tag_a) &&
          probe_round(world, kPhaseElasticEnlist, tag_b)) {
        Traits::template run_base<T>(ctx, cfg, out);
        clean = probe_round(world, kPhaseElasticConfirm, tag_done);
      }
    } catch (const PeerFailedError&) {
      clean = false;
    }
  }
  if (clean) {
    // Retire: every tag of this rank is dead to stragglers, so a peer that
    // still enters recovery reads this rank as gone and regenerates.
    ctx.abandon_below(kTagSpaceLimit);
    out.survivors = nprocs;
    out.active_ranks = nprocs;
    out.final_grid = Traits::grid_of(cfg);
    return out;
  }
  out.c_chunks.clear();
  out.c_data.clear();
  // Cascade: peers blocked on this rank's algorithm tags fail over now.
  ctx.abandon();

  std::vector<int> everyone_ranks(static_cast<std::size_t>(nprocs));
  std::iota(everyone_ranks.begin(), everyone_ranks.end(), 0);

  for (int round = 1; round <= ecfg.max_failures + 1; ++round) {
    // Realign the recovery cursor to this round's band: survivors stuck in
    // different per-round lease histories (idle vs active) agree again.
    ctx.tags().set_recovery_cursor(elastic_band_base(round));
    ctx.set_phase(kPhaseElasticShrink);
    coll::Comm everyone = coll::Comm::recovery(ctx, everyone_ranks);
    coll::ShrinkResult agreed =
        coll::shrink(everyone, ecfg.max_failures, /*i_abandoned=*/true);
    const coll::Comm& surv = agreed.survivors;
    // Pre-draw the confirm tag: the exec leases below are active-only, and
    // the confirm round must stay in lockstep with idle survivors.
    const int tag_confirm = surv.take_tag_block();

    const i64 pprime = surv.size();
    const typename Traits::Config ncfg = Traits::plan_at(cfg, pprime);
    const i64 nact = Traits::active_ranks(ncfg);
    CAMB_CHECK(nact >= 1 && nact <= pprime);
    const std::vector<int> actives(surv.ranks().begin(),
                                   surv.ranks().begin() + nact);
    const int L = surv.my_index() < nact ? surv.my_index() : -1;

    const coll::RegridPlan plan =
        make_regrid_plan<Traits>(cfg, ncfg, surv.ranks(), nact, nprocs);
    coll::RegridResult<T> moved =
        coll::regrid<T>(surv, plan, old_a, old_b, fill);

    bool healed = false;
    try {
      if (L >= 0) {
        Traits::template exec<T>(ctx, ncfg, actives, L, std::move(moved.a),
                                 std::move(moved.b), out);
      }
      healed = probe_round(surv, kPhaseElasticConfirm, tag_confirm);
    } catch (const PeerFailedError&) {
      healed = false;
    }
    if (healed) {
      ctx.abandon_below(kTagSpaceLimit);  // retire
      out.rounds = round;
      out.idle = L < 0;
      out.failed = agreed.failed;
      out.survivors = pprime;
      out.active_ranks = nact;
      out.final_grid = Traits::grid_of(ncfg);
      out.migrated_elems = moved.migrated_elems;
      out.regenerated_elems = moved.regenerated_elems;
      out.local_elems = moved.local_elems;
      return out;
    }
    out.c_chunks.clear();
    out.c_data.clear();
    // This round's band is dead to everyone; round r+1 tags still flow.
    ctx.abandon_below(elastic_band_base(round + 1));
  }
  // Unreachable unless more than max_failures distinct deaths struck: every
  // retried round is rooted in a death during the previous one.
  throw Error("elastic: recovery did not converge within max_failures rounds");
}

/// The enlistment-crash prediction mirror (shared by the three wrappers).
template <typename Traits>
ElasticPrediction predict_impl(const typename Traits::Config& base,
                               const ElasticConfig& ecfg,
                               const std::vector<int>& failed, int nprocs,
                               double width_words) {
  CAMB_CHECK_MSG(Traits::active_ranks(base) == nprocs,
                 "elastic prediction: base grid must cover the machine");
  ElasticPrediction pred;
  pred.rank_recv_words.assign(static_cast<std::size_t>(nprocs), 0.0);
  pred.rank_migration_words.assign(static_cast<std::size_t>(nprocs), 0.0);
  pred.rank_exec_words.assign(static_cast<std::size_t>(nprocs), 0.0);
  if (failed.empty()) {
    // Clean elastic run: the base algorithm's words exactly (enlistment and
    // confirm probes are zero-word).
    pred.survivors = nprocs;
    pred.active_ranks = nprocs;
    pred.grid = Traits::grid_of(base);
    for (int r = 0; r < nprocs; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      pred.rank_exec_words[ur] = width_words * Traits::exec_recv_elems(base, r);
      pred.rank_recv_words[ur] = pred.rank_exec_words[ur];
    }
    return pred;
  }
  std::vector<char> dead(static_cast<std::size_t>(nprocs), 0);
  for (int f : failed) {
    CAMB_CHECK_MSG(f >= 0 && f < nprocs, "elastic prediction: bad failed rank");
    dead[static_cast<std::size_t>(f)] = 1;
  }
  std::vector<int> survivors;
  for (int r = 0; r < nprocs; ++r) {
    if (!dead[static_cast<std::size_t>(r)]) survivors.push_back(r);
  }
  CAMB_CHECK_MSG(!survivors.empty(), "elastic prediction: nobody survives");
  const typename Traits::Config ncfg =
      Traits::plan_at(base, static_cast<i64>(survivors.size()));
  const i64 nact = Traits::active_ranks(ncfg);
  pred.survivors = static_cast<i64>(survivors.size());
  pred.active_ranks = nact;
  pred.grid = Traits::grid_of(ncfg);
  pred.shrink_words = static_cast<double>(elastic_shrink_recv_words_exact(
      nprocs, ecfg.max_failures, static_cast<int>(failed.size())));
  const coll::RegridPlan plan =
      make_regrid_plan<Traits>(base, ncfg, survivors, nact, nprocs);
  for (std::size_t s = 0; s < survivors.size(); ++s) {
    const auto m = static_cast<std::size_t>(survivors[s]);
    pred.rank_migration_words[m] =
        width_words * coll::regrid_recv_elems_exact(plan, survivors[s]);
    pred.rank_exec_words[m] =
        static_cast<i64>(s) < nact
            ? width_words * Traits::exec_recv_elems(ncfg, static_cast<int>(s))
            : 0.0;
    pred.rank_recv_words[m] = pred.shrink_words + pred.rank_migration_words[m] +
                              pred.rank_exec_words[m];
  }
  return pred;
}

}  // namespace

SummaConfig summa_plan_at(const SummaConfig& base, i64 max_procs) {
  CAMB_CHECK_MSG(max_procs >= 1, "elastic re-plan needs at least one rank");
  SummaConfig ncfg = base;
  ncfg.g = std::max<i64>(1, isqrt(max_procs));
  return ncfg;
}

Grid3dConfig grid3d_plan_at(const Grid3dConfig& base, i64 max_procs) {
  CAMB_CHECK_MSG(max_procs >= 1, "elastic re-plan needs at least one rank");
  Grid3dConfig ncfg = base;
  // Through the planner service: every survivor of the same failure re-plans
  // the same (shape, P′), so the memoized search answers all but the first.
  ncfg.grid =
      planner::GridPlanner::instance().best_integer_grid_at_most(base.shape,
                                                                 max_procs);
  return ncfg;
}

Alg25dConfig alg25d_plan_at(const Alg25dConfig& base, i64 max_procs) {
  CAMB_CHECK_MSG(max_procs >= 1, "elastic re-plan needs at least one rank");
  // Same scoring rule as core::best_integer_grid_at_most: 2.5D words plus
  // the γ/β compute share, so the search cannot collapse to one rank just
  // because a single rank moves zero words.
  const double flops = 2.0 * static_cast<double>(base.shape.n1) *
                       static_cast<double>(base.shape.n2) *
                       static_cast<double>(base.shape.n3);
  Alg25dConfig best = base;
  best.g = 1;
  best.c = 1;
  double best_cost = std::numeric_limits<double>::infinity();
  i64 best_total = 0;
  for (i64 g = 1; g * g <= max_procs; ++g) {
    for (i64 c = 1; c <= g && g * g * c <= max_procs; ++c) {
      if (g % c != 0) continue;
      Alg25dConfig cand = base;
      cand.g = g;
      cand.c = c;
      const i64 total = g * g * c;
      const double cost = alg25d_cost_words(cand) +
                          core::kPlanGammaOverBeta * flops /
                              static_cast<double>(total);
      // Lowest score; ties to more ranks; iteration order makes the first
      // full tie the lexicographically smallest (g, c).
      if (cost < best_cost || (cost == best_cost && total > best_total)) {
        best = cand;
        best_cost = cost;
        best_total = total;
      }
    }
  }
  return best;
}

coll::PanelSet summa_panels(const SummaConfig& cfg, int logical) {
  coll::PanelSet set;
  const i64 g = cfg.g;
  if (logical < 0 || logical >= g * g) return set;
  const i64 i = logical / g, j = logical % g;
  const BlockDist1D d1(cfg.shape.n1, g), d2(cfg.shape.n2, g),
      d3(cfg.shape.n3, g);
  append_block_spans(set, 0, d1, i, d2, j, cfg.shape.n2);
  append_block_spans(set, 1, d2, i, d3, j, cfg.shape.n3);
  return set;
}

coll::PanelSet grid3d_panels(const Grid3dConfig& cfg, int logical) {
  coll::PanelSet set;
  if (logical < 0 || logical >= cfg.grid.total()) return set;
  const Grid3dLayout layout = grid3d_layout(cfg, logical);
  append_chunk_spans(set, 0, layout.a, cfg.shape.n2);
  append_chunk_spans(set, 1, layout.b, cfg.shape.n3);
  return set;
}

coll::PanelSet alg25d_panels(const Alg25dConfig& cfg, int logical) {
  coll::PanelSet set;
  const i64 g = cfg.g;
  if (logical < 0 || logical >= g * g * cfg.c) return set;
  const i64 l = logical / (g * g);
  if (l != 0) return set;  // one input copy, on layer 0
  const i64 i = (logical / g) % g, j = logical % g;
  const BlockDist1D d1(cfg.shape.n1, g), d2(cfg.shape.n2, g),
      d3(cfg.shape.n3, g);
  append_block_spans(set, 0, d1, i, d2, j, cfg.shape.n2);
  append_block_spans(set, 1, d2, i, d3, j, cfg.shape.n3);
  return set;
}

template <typename T>
ElasticRankOutputT<T> summa_elastic_rank(RankCtx& ctx, const SummaConfig& cfg,
                                         const ElasticConfig& ecfg) {
  return elastic_rank_impl<SummaTraits, T>(ctx, cfg, ecfg);
}

template <typename T>
ElasticRankOutputT<T> grid3d_elastic_rank(RankCtx& ctx,
                                          const Grid3dConfig& cfg,
                                          const ElasticConfig& ecfg) {
  return elastic_rank_impl<Grid3dTraits, T>(ctx, cfg, ecfg);
}

template <typename T>
ElasticRankOutputT<T> alg25d_elastic_rank(RankCtx& ctx,
                                          const Alg25dConfig& cfg,
                                          const ElasticConfig& ecfg) {
  return elastic_rank_impl<Alg25dTraits, T>(ctx, cfg, ecfg);
}

#define CAMB_INSTANTIATE(T)                                          \
  template ElasticRankOutputT<T> summa_elastic_rank<T>(              \
      RankCtx&, const SummaConfig&, const ElasticConfig&);           \
  template ElasticRankOutputT<T> grid3d_elastic_rank<T>(             \
      RankCtx&, const Grid3dConfig&, const ElasticConfig&);          \
  template ElasticRankOutputT<T> alg25d_elastic_rank<T>(             \
      RankCtx&, const Alg25dConfig&, const ElasticConfig&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

ElasticPrediction summa_elastic_prediction(const SummaConfig& base,
                                           const ElasticConfig& ecfg,
                                           const std::vector<int>& failed,
                                           int nprocs, double width_words) {
  return predict_impl<SummaTraits>(base, ecfg, failed, nprocs, width_words);
}

ElasticPrediction grid3d_elastic_prediction(const Grid3dConfig& base,
                                            const ElasticConfig& ecfg,
                                            const std::vector<int>& failed,
                                            int nprocs, double width_words) {
  return predict_impl<Grid3dTraits>(base, ecfg, failed, nprocs, width_words);
}

ElasticPrediction alg25d_elastic_prediction(const Alg25dConfig& base,
                                            const ElasticConfig& ecfg,
                                            const std::vector<int>& failed,
                                            int nprocs, double width_words) {
  return predict_impl<Alg25dTraits>(base, ecfg, failed, nprocs, width_words);
}

}  // namespace camb::mm
