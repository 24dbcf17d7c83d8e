#include "matmul/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <type_traits>

#include "collectives/shrink.hpp"
#include "machine/parallel_rows.hpp"
#include "matmul/freivalds.hpp"
#include "matmul/local_gemm.hpp"
#include "util/error.hpp"

namespace camb::mm {

namespace {

/// Shapes above this flop count use Freivalds under VerifyMode::kAuto.
constexpr i64 kReferenceFlopLimit = 1 << 26;  // ~67M multiply-adds

/// Run the callable with the scalar type selected by the options' dtype.
/// The one runtime → compile-time bridge: everything below it is templated.
template <typename F>
RunReport dispatch_dtype(DType d, F&& f) {
  switch (d) {
    case DType::kF64:
      return f(std::type_identity<double>{});
    case DType::kF32:
      return f(std::type_identity<float>{});
    case DType::kI64:
      return f(std::type_identity<i64>{});
    case DType::kKahan:
      return f(std::type_identity<kahan>{});
  }
  throw Error("unreachable dtype");
}

/// Machine construction + fault wiring for one run: the rank RNG seed, the
/// fault seed, and the crash seed all derive from the options' master seed
/// (independent domains), so a run is replayable from that one logged value.
void configure_machine(camb::Machine& machine, const RunOptions& opts) {
  machine.set_scheduler(opts.scheduler);
  if (opts.perturb.enabled() || opts.sdc.message_sdc()) {
    camb::FaultProfile profile = opts.perturb.enabled()
                                     ? fault_profile_from_spec(opts.perturb.profile)
                                     : camb::FaultProfile{};
    if (opts.sdc.message_sdc()) {
      // One CLI rate arms all three per-copy SDC events; a profile that
      // already injects them keeps the stronger setting.
      profile.drop_prob = std::max(profile.drop_prob, opts.sdc.message_rate);
      profile.flip_prob = std::max(profile.flip_prob, opts.sdc.message_rate);
      profile.dup_prob = std::max(profile.dup_prob, opts.sdc.message_rate);
    }
    machine.enable_faults(profile, opts.perturb.fault_seed(),
                          opts.sdc.sdc_seed(opts.perturb.master_seed));
  }
  if (opts.sdc.reliable) {
    machine.enable_reliable_transport(
        opts.sdc.sdc_seed(opts.perturb.master_seed));
  }
  if (opts.crash.enabled()) {
    machine.enable_crashes(opts.crash.ranks,
                           opts.crash.crash_seed(opts.perturb.master_seed),
                           opts.crash.max_send_position);
  }
  if (opts.collect_trace) machine.enable_trace();
}

/// Measurement half shared by every run_*: critical-path counters, phase
/// breakdown, simulated time, peak memory, the dtype annotation, and the
/// fault record.
RunReport report_from_machine(camb::Machine& machine, const RunOptions& opts) {
  const camb::CommStats& stats = machine.stats();
  RunReport report;
  report.dtype = opts.dtype;
  report.element_bytes = dtype_elem_bytes(opts.dtype);
  report.measured_critical_recv = stats.critical_path_received_words();
  report.measured_critical_sent = stats.critical_path_sent_words();
  report.total_network_words = stats.total_words_sent();
  for (int r = 0; r < stats.nprocs(); ++r) {
    const auto& totals = stats.rank_total(r);
    report.rank_recv_words.push_back(totals.words_received());
    report.rank_sent_words.push_back(totals.words_sent());
    report.rank_messages.push_back(totals.messages_sent);
    report.measured_critical_messages =
        std::max(report.measured_critical_messages, totals.messages_sent);
  }
  for (const auto& phase : stats.phases()) {
    report.phase_recv[phase] = stats.phase_critical_path_received_words(phase);
  }
  report.simulated_time = machine.critical_path_time();
  report.measured_peak_memory_words = machine.max_peak_memory_words();
  report.max_abs_error = std::numeric_limits<double>::quiet_NaN();
  report.faults.master_seed = opts.perturb.master_seed;
  report.faults.profile = opts.perturb.profile;
  if (camb::FaultPlan* plan = machine.fault_plan()) {
    const camb::FaultCounts counts = plan->counts();
    report.faults.enabled = true;
    report.faults.fault_seed = plan->seed();
    report.faults.injected_delays = counts.delayed_messages;
    report.faults.injected_failures = counts.failed_sends;
    report.faults.total_retries = counts.total_retries;
    report.faults.reordered_messages = counts.reordered_messages;
    report.faults.stragglers = counts.stragglers;
  }
  report.corruption.enabled = opts.sdc.enabled();
  if (opts.sdc.enabled()) {
    report.corruption.sdc_seed = opts.sdc.sdc_seed(opts.perturb.master_seed);
  }
  if (camb::FaultPlan* plan = machine.fault_plan()) {
    const camb::FaultCounts counts = plan->counts();
    report.corruption.sdc_seed = plan->sdc_seed();
    report.corruption.injected_drops = counts.dropped_copies;
    report.corruption.injected_flips = counts.corrupt_copies;
    report.corruption.injected_dups = counts.duplicated_messages;
  }
  const camb::TransportCounters transport = stats.transport_total();
  report.corruption.caught_at_transport = transport.corrupt_discards;
  report.corruption.retransmits = transport.retransmits;
  report.corruption.retransmitted_words =
      static_cast<double>(transport.retransmitted_bytes) / 8.0;
  report.corruption.acks = transport.acks;
  report.corruption.nacks = transport.nacks;
  report.corruption.dup_discards = transport.dup_discards;
  report.corruption.transport_debris =
      static_cast<i64>(machine.transport_debris().size());
  if (camb::Trace* trace = machine.trace()) {
    report.trace_events = trace->events();
  }
  if (machine.crash_plan() != nullptr) {
    report.recovery.enabled = true;
    report.recovery.crash_seed =
        opts.crash.crash_seed(opts.perturb.master_seed);
    report.recovery.planned = opts.crash.ranks;
  }
  const camb::CrashOutcome& outcome = machine.crash_outcome();
  report.recovery.crashed = outcome.crashed;
  report.recovery.abandoned = outcome.abandoned;
  report.recovery.detection_events =
      static_cast<i64>(outcome.detections.size());
  for (const camb::DetectionEvent& d : outcome.detections) {
    if (report.recovery.first_detection_clock == 0 ||
        d.clock < report.recovery.first_detection_clock) {
      report.recovery.first_detection_clock = d.clock;
    }
    report.recovery.last_detection_clock =
        std::max(report.recovery.last_detection_clock, d.clock);
  }
  for (const camb::UndeliveredMessage& d : outcome.debris) {
    ++report.recovery.debris_envelopes;
    report.recovery.debris_words += d.words();
  }
  const camb::PhaseId heartbeat = stats.find_phase("heartbeat");
  const camb::PhaseId abft_shrink = stats.find_phase("abft_shrink");
  const camb::PhaseId abft_recover = stats.find_phase("abft_recover");
  const camb::PhaseId abft_encode = stats.find_phase("abft_encode");
  for (int r = 0; r < stats.nprocs(); ++r) {
    const camb::PhaseCounters probes = stats.rank_phase(r, heartbeat);
    report.recovery.heartbeat_probes += probes.messages_sent;
    const double rec = stats.rank_phase(r, abft_shrink).words_received() +
                       stats.rank_phase(r, abft_recover).words_received() +
                       probes.words_received();
    report.recovery.recovery_recv_words =
        std::max(report.recovery.recovery_recv_words, rec);
    report.recovery.encode_recv_words =
        std::max(report.recovery.encode_recv_words,
                 stats.rank_phase(r, abft_encode).words_received());
  }
  return report;
}

/// FNV-1a over the exact bit pattern of every entry, row-major, sizeof(T)
/// bytes per element: the "output bits" fingerprint pinned by the
/// equivalence sweep.  For double this hashes the same 8 bytes per entry as
/// the pre-dtype harness, so committed f64 golden hashes are unchanged.
template <typename T>
std::uint64_t hash_matrix(const Matrix<T>& m) {
  std::uint64_t h = 1469598103934665603ull;
  unsigned char bytes[sizeof(T)];
  for (i64 i = 0; i < m.rows(); ++i) {
    for (i64 j = 0; j < m.cols(); ++j) {
      const T v = m(i, j);
      std::memcpy(bytes, &v, sizeof(T));
      for (std::size_t b = 0; b < sizeof(T); ++b) {
        h ^= bytes[b];
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

/// Place a flat chunk of a row-major block into the global matrix, one
/// contiguous row run at a time.
template <typename T>
void place_chunk(Matrix<T>& global, const BlockChunk& chunk,
                 const std::vector<T>& data) {
  CAMB_CHECK(static_cast<i64>(data.size()) == chunk.flat_size);
  const T* src = data.data();
  for (i64 f = 0; f < chunk.flat_size;) {
    const i64 flat = chunk.flat_start + f;
    const i64 col = flat % chunk.cols;
    const i64 run = std::min(chunk.cols - col, chunk.flat_size - f);
    std::copy(src + f, src + f + run,
              &global(chunk.row0 + flat / chunk.cols, chunk.col0 + col));
    f += run;
  }
}

void list_ranks(std::ostringstream& out, const std::vector<int>& ranks) {
  out << "[";
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0) out << ",";
    out << ranks[i];
  }
  out << "]";
}

}  // namespace

std::string RecoveryReport::summary() const {
  std::ostringstream out;
  out << "recovery{abft=" << (abft ? 1 : 0) << " crash_seed=" << crash_seed
      << " planned=";
  list_ranks(out, planned);
  out << " crashed=";
  list_ranks(out, crashed);
  out << " abandoned=";
  list_ranks(out, abandoned);
  out << " detections=" << detection_events << " detect_clock=["
      << first_detection_clock << "," << last_detection_clock
      << "] heartbeats=" << heartbeat_probes
      << " recovery_recv=" << recovery_recv_words
      << " encode_recv=" << encode_recv_words
      << " debris=" << debris_envelopes << "env/" << debris_words << "w"
      << " overhead_ratio=" << overhead_ratio << "}";
  return out.str();
}

std::string ResilienceReport::summary() const {
  std::ostringstream out;
  out << "resilience{interval=" << interval << " stride=" << buddy_stride
      << " spares=" << spares << " rounds=" << rounds
      << " final_epoch=" << final_epoch << " failed=";
  list_ranks(out, failed);
  out << " fresh=";
  list_ranks(out, fresh_logicals);
  out << " ckpt_recv=" << checkpoint_recv_words
      << " flood_recv=" << flood_recv_words
      << " restream_recv=" << restream_recv_words << "}";
  return out.str();
}

std::string FaultReport::summary() const {
  std::ostringstream out;
  out << "perturb{profile=" << profile << " master_seed=" << master_seed
      << " fault_seed=" << fault_seed << " delays=" << injected_delays
      << " failed_sends=" << injected_failures << " retries=" << total_retries
      << " reordered=" << reordered_messages << " stragglers=" << stragglers
      << "}";
  return out.str();
}

std::string CorruptionReport::summary() const {
  std::ostringstream out;
  out << "sdc{seed=" << sdc_seed << " injected=" << injected_drops << "drop/"
      << injected_flips << "flip/" << injected_dups << "dup/"
      << injected_mem_flips << "mem caught=" << caught_at_transport
      << " retransmits=" << retransmits << "(" << retransmitted_words
      << "w) acks=" << acks << " nacks=" << nacks
      << " dup_discards=" << dup_discards << " debris=" << transport_debris
      << " abft=" << detected_by_checksums << "det/" << corrected_by_abft
      << "fix escaped=" << escaped << "}";
  return out.str();
}

std::string ElasticReport::summary() const {
  std::ostringstream out;
  out << "elastic{rounds=" << rounds << " failed=";
  list_ranks(out, failed);
  out << " survivors=" << survivors << " active=" << active_ranks << " grid="
      << grid.p1 << "x" << grid.p2 << "x" << grid.p3
      << " migration_recv=" << migration_recv_words
      << " shrink_recv=" << shrink_recv_words
      << " exec_recv=" << exec_recv_words
      << " bound_at_pprime=" << bound_words_at_pprime
      << " overhead_vs_bound=" << overhead_vs_bound << "}";
  return out.str();
}

namespace {

template <typename T>
void fill_inputs(const Shape& shape, bool integer_inputs, Matrix<T>& a,
                 Matrix<T>& b) {
  a = Matrix<T>(shape.n1, shape.n2);
  b = Matrix<T>(shape.n2, shape.n3);
  for (Matrix<T>* m : {&a, &b}) {
    parallel_rows(m->rows(), m->cols(), [&](i64 begin, i64 end) {
      if (integer_inputs) {
        m->fill_indexed_int_rows(0, 0, begin, end);
      } else {
        m->fill_indexed_rows(0, 0, begin, end);
      }
    });
  }
}

template <typename T>
double check_result_pattern(const Shape& shape, const Matrix<T>& assembled,
                            VerifyMode mode, bool integer_inputs) {
  if (mode == VerifyMode::kAuto) {
    mode = shape.flops() <= kReferenceFlopLimit ? VerifyMode::kReference
                                                : VerifyMode::kFreivalds;
  }
  switch (mode) {
    case VerifyMode::kNone:
      return std::numeric_limits<double>::quiet_NaN();
    case VerifyMode::kReference: {
      Matrix<T> a, b;
      fill_inputs<T>(shape, integer_inputs, a, b);
      return assembled.max_abs_diff(gemm_pooled(a, b));
    }
    case VerifyMode::kFreivalds: {
      Matrix<T> a, b;
      fill_inputs<T>(shape, integer_inputs, a, b);
      Rng rng(0xF4E1);
      return freivalds_residual<T>(a, b, assembled, /*trials=*/24, rng);
    }
    case VerifyMode::kAuto:
      break;
  }
  throw Error("unreachable verify mode");
}

/// The inputs the ABFT algorithms fill: exact scalars use the plain indexed
/// pattern (native integer arithmetic never rounds), rounded scalars the
/// integer-valued pattern (exactness through smallness) — matching
/// abft_fill in matmul/abft.cpp.
template <typename T>
constexpr bool abft_integer_inputs() {
  return !ScalarTraits<T>::exact;
}

}  // namespace

MatrixD reference_result(const Shape& shape) {
  MatrixD a(shape.n1, shape.n2), b(shape.n2, shape.n3);
  a.fill_indexed(0, 0);
  b.fill_indexed(0, 0);
  return gemm_pooled(a, b);
}

MatrixD reference_result_int(const Shape& shape) {
  MatrixD a(shape.n1, shape.n2), b(shape.n2, shape.n3);
  a.fill_indexed_int(0, 0);
  b.fill_indexed_int(0, 0);
  return gemm_pooled(a, b);
}

template <typename T>
double check_result(const Shape& shape, const Matrix<T>& assembled,
                    VerifyMode mode) {
  return check_result_pattern<T>(shape, assembled, mode,
                                 /*integer_inputs=*/false);
}

#define CAMB_INSTANTIATE(T)                                       \
  template double check_result<T>(const Shape&, const Matrix<T>&, \
                                  VerifyMode);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

namespace {

// ---- Output placement: one overload per rank-output type ----------------
// Crashed ranks hold default-constructed outputs (the body never returned),
// which place nothing, so assembly needs no crash bookkeeping.

template <typename T>
void place_output(Matrix<T>& c, const Block2DOutputT<T>& out) {
  for (i64 i = 0; i < out.block.rows(); ++i) {
    for (i64 j = 0; j < out.block.cols(); ++j) {
      c(out.row0 + i, out.col0 + j) = out.block(i, j);
    }
  }
}

template <typename T>
void place_output(Matrix<T>& c, const Grid3dRankOutputT<T>& out) {
  place_chunk<T>(c, out.c_chunk, out.c_data);
}

template <typename T>
void place_output(Matrix<T>& c, const CarmaRankOutputT<T>& out) {
  place_chunk<T>(c, out.holding, out.data);
}

template <typename T>
void place_output(Matrix<T>& c, const Grid3dStagedRankOutputT<T>& out) {
  for (std::size_t s = 0; s < out.c_chunks.size(); ++s) {
    place_chunk<T>(c, out.c_chunks[s], out.c_data[s]);
  }
}

/// Retiree attempt-0 tiles and recovery-round tiles overlap bit-identically,
/// so placement order does not matter.
template <typename T>
void place_output(Matrix<T>& c, const ElasticRankOutputT<T>& out) {
  for (std::size_t s = 0; s < out.c_chunks.size(); ++s) {
    place_chunk<T>(c, out.c_chunks[s], out.c_data[s]);
  }
}

/// ABFT outputs: the own tile plus any dead peer's reconstructed tile.
template <typename T>
void place_output(Matrix<T>& c, const SummaAbftOutputT<T>& out) {
  place_output<T>(c, out.own);
  for (const RecoveredBlock2DT<T>& rec : out.recovered) {
    place_output<T>(c, rec.out);
  }
}

template <typename T>
void place_output(Matrix<T>& c, const Grid3dAbftOutputT<T>& out) {
  place_output<T>(c, out.own);
  for (const RecoveredChunk3DT<T>& rec : out.recovered) {
    place_chunk<T>(c, rec.c_chunk, rec.c_data);
  }
}

bool contains(const std::vector<int>& ranks, int r) {
  return std::find(ranks.begin(), ranks.end(), r) != ranks.end();
}

/// The Theorem 3 bound for (shape, P), scaled into the run's words: the
/// theory counts elements, the machine counts 8-byte words.
double lower_bound_for(const Shape& shape, i64 nprocs,
                       const RunOptions& opts) {
  return camb::core::memory_independent_bound(shape,
                                              static_cast<double>(nprocs))
             .words *
         dtype_width_words(opts.dtype);
}

/// Commit tax of a clean checkpointed run for logical rank L: at each
/// committed epoch, L receives its ward's snapshot wire.  Zero when the
/// buddy ring degenerates to self (stride ≡ 0 mod P): self-sends are free.
i64 ckpt_commit_tax(int P, const CheckpointConfig& ck, i64 steps, int logical,
                    const std::function<i64(int, i64)>& snapshot_words) {
  const int stride = ((ck.buddy_stride % P) + P) % P;
  if (stride == 0) return 0;
  const int ward = camb::ckpt_ward(logical, P, ck.buddy_stride);
  i64 tax = 0;
  for (i64 step = ck.interval; step <= steps; step += ck.interval) {
    tax += snapshot_words(ward, step);
  }
  return tax;
}

/// Resilience record + prediction for a checkpointed run.  Clean runs have
/// an exact closed form (per-logical base words + commit tax + agreement
/// flood, with idle spares paying only the flood); once a crash fires the
/// word count depends on where in the schedule the rank died, so the
/// prediction is withheld (−1) and the tests pin bit-identity and the
/// per-phase recovery words instead.
void fill_resilience_report(RunReport& report, camb::Machine& machine,
                            const RunOptions& opts,
                            const std::vector<ckpt::RunLog>& logs, int P,
                            i64 steps,
                            const std::function<i64(int)>& base_pred,
                            const std::function<i64(int, i64)>& snapshot_words) {
  const CheckpointConfig& ck = opts.checkpoint;
  const int T = P + ck.spares;
  ResilienceReport& res = report.resilience;
  res.enabled = true;
  res.interval = ck.interval;
  res.buddy_stride = ck.buddy_stride;
  res.spares = ck.spares;
  // The longest log belongs to a rank that saw every round through.
  for (const ckpt::RunLog& log : logs) {
    if (log.size() > res.log.size()) res.log = log;
  }
  res.rounds = static_cast<int>(res.log.size());
  for (const ckpt::RoundRecord& rec : res.log) {
    // The DONE record carries no epoch; the agreed rollback target lives in
    // the rollback records, and the last one is what the winning execution
    // round resumed from.
    if (!rec.done) res.final_epoch = rec.epoch;
    for (int f : rec.failed) {
      if (!contains(res.failed, f)) res.failed.push_back(f);
    }
    for (int l : rec.fresh) {
      if (!contains(res.fresh_logicals, l)) res.fresh_logicals.push_back(l);
    }
  }
  const camb::CommStats& stats = machine.stats();
  const camb::PhaseId checkpoint = stats.find_phase(ckpt::kPhaseCheckpoint);
  const camb::PhaseId flood = stats.find_phase(ckpt::kPhaseCkptShrink);
  const camb::PhaseId restream = stats.find_phase(ckpt::kPhaseCkptRollback);
  for (int r = 0; r < stats.nprocs(); ++r) {
    res.checkpoint_recv_words =
        std::max(res.checkpoint_recv_words,
                 stats.rank_phase(r, checkpoint).words_received());
    res.flood_recv_words = std::max(
        res.flood_recv_words, stats.rank_phase(r, flood).words_received());
    res.restream_recv_words =
        std::max(res.restream_recv_words,
                 stats.rank_phase(r, restream).words_received());
  }
  if (machine.crash_outcome().any_crashed()) {
    report.predicted_critical_recv = -1;
  } else {
    // Split prediction: the algorithm + commit-tax words are dtype-scaled
    // data (elements), while the agreement flood is fixed 8-byte control
    // traffic.  The flood is uniform across every physical rank (idle
    // spares included), so the split commutes with the max.
    i64 worst = 0;
    for (int L = 0; L < P; ++L) {
      worst = std::max(
          worst, base_pred(L) + ckpt_commit_tax(P, ck, steps, L, snapshot_words));
    }
    report.predicted_critical_recv = worst;
    report.predicted_control_words +=
        ckpt::ckpt_flood_recv_words_exact(T, ck.spares);
  }
}

/// Flip one low bit of the integer value at a seeded position of `data`
/// when rank `rank`'s memory-SDC coin lands.  The draw chain is a pure
/// function of (mem_seed, rank), so a corruption scenario replays from the
/// logged seed alone.  ABFT tiles are integer-valued in every dtype (small
/// enough to be exact in f32 and represented natively in i64), and the flip
/// keeps them integer-valued, so every later checksum subtraction stays
/// exact — which is what makes the repair bit-exact.
template <typename T>
bool maybe_flip_entry(std::uint64_t mem_seed, int rank, double rate,
                      std::span<T> data) {
  Rng rng(mem_seed, static_cast<std::uint64_t>(rank));
  if (rng.uniform() >= rate || data.empty()) return false;
  const std::size_t idx = rng.below(data.size());
  const int bit = static_cast<int>(rng.below(16));
  const i64 value =
      static_cast<i64>(std::llround(ScalarTraits<T>::to_double(data[idx])));
  const i64 flipped = value ^ (i64{1} << bit);
  if constexpr (std::is_same_v<T, i64>) {
    data[idx] = flipped;
  } else {
    data[idx] = static_cast<T>(static_cast<double>(flipped));
  }
  return true;
}

/// The owned output tile memory-SDC injection may corrupt.
template <typename T>
std::span<T> own_tile(SummaAbftOutputT<T>& out) {
  return {out.own.block.data(), static_cast<std::size_t>(out.own.block.size())};
}

template <typename T>
std::span<T> own_tile(Grid3dAbftOutputT<T>& out) {
  return out.own.c_data;
}

/// Everything the run pipeline needs to know about one algorithm at scalar
/// T.  Output placement is resolved by place_output's overload on Output.
template <typename T, typename Output>
struct Descriptor {
  using Outputs = std::vector<Output>;
  const char* name = "";    ///< the algorithm's name in error messages
  Shape shape = {};
  i64 nprocs = 0;           ///< logical ranks P
  bool integer_inputs = false;  ///< input pattern verification regenerates
  /// Capability flags.  abft: checksum-augmented, so memory SDC has a
  /// correction path.  elastic: recovers by shrink-and-regrid, which rules
  /// out checkpoint/rollback and memory SDC.
  bool abft = false;
  bool elastic = false;
  /// The SPMD body under the plain session, and under a rollback session
  /// (unset for elastic algorithms).  The folded algorithms pass their one
  /// session-generic body for both.
  std::function<Output(PlainSession<T>&)> body = {};
  std::function<Output(ckpt::SessionT<T>&)> ckpt_body = {};
  /// Boundary steps the checkpointed body announces, and the snapshot wire
  /// size of (logical rank, step) in elements.
  i64 steps = 0;
  std::function<i64(int, i64)> snapshot_words = {};
  /// Fault-free received elements of logical rank L (unset: the hook
  /// predicts), plus the plain run's fixed 8-byte control words.
  std::function<i64(int)> predict = {};
  i64 control_words = 0;
  /// Runs between the report and verification on the plain path (rollback
  /// re-executes instead of correcting or regridding).
  std::function<void(RunReport&, camb::Machine&, Outputs&)> hook = {};
};

/// The one place that says which run options go with which algorithms.
/// Memory SDC has no transport to heal it — only an ABFT checksum
/// correction can, and not under rollback, which re-executes instead of
/// correcting.  Elastic shrink-and-regrid is a recovery discipline of its
/// own: it stacks with neither rollback (which re-executes on the OLD grid —
/// the opposite answer to the same failure) nor memory SDC.
void check_capabilities(const std::string& algo, bool abft, bool elastic,
                        const RunOptions& opts) {
  const bool mem_sdc = opts.sdc.mem_rate > 0;
  if (elastic && opts.checkpoint.enabled()) {
    throw Error(algo +
                ": elastic shrink-and-regrid does not compose with "
                "checkpoint/rollback — rollback re-executes on the old grid, "
                "elastic re-plans it; pick one recovery discipline");
  }
  if (elastic && mem_sdc) {
    throw Error(algo +
                ": memory-SDC injection (--sdc-mem-rate) requires a "
                "checksum-augmented algorithm; the elastic twins recover by "
                "re-execution, not correction");
  }
  if (!abft && mem_sdc) {
    throw Error("memory-SDC injection (--sdc-mem-rate) requires a "
                "checksum-augmented (ABFT) algorithm; " +
                algo + " has no correction path");
  }
  if (mem_sdc && opts.checkpoint.enabled()) {
    throw Error("memory-SDC injection (--sdc-mem-rate) does not compose with "
                "checkpoint/rollback: rollback re-executes instead of "
                "correcting, so the checksum repair path is never exercised");
  }
}

/// The run pipeline: capability check, one machine (P ranks, or P + spares
/// each driving the rollback round loop), the report and prediction, the
/// algorithm's hook, and one assemble / hash / verify block.
template <typename T, typename Output>
RunReport run_descriptor(const Descriptor<T, Output>& d,
                         const RunOptions& opts) {
  check_capabilities(d.name, d.abft, d.elastic, opts);
  const int P = static_cast<int>(d.nprocs);
  const CheckpointConfig& ck = opts.checkpoint;
  camb::Machine machine(P + (ck.enabled() ? ck.spares : 0),
                        opts.perturb.machine_seed());
  configure_machine(machine, opts);
  std::vector<Output> outputs(static_cast<std::size_t>(P));
  std::vector<ckpt::RunLog> logs;
  if (ck.enabled()) {
    // Per-logical outputs are collected under a mutex (re-executions
    // overwrite bit-identical values).
    ckpt::ResilientConfig rcfg;
    rcfg.nprocs = P;
    rcfg.spares = ck.spares;
    rcfg.interval = ck.interval;
    rcfg.buddy_stride = ck.buddy_stride;
    std::vector<std::optional<Output>> results(static_cast<std::size_t>(P));
    std::mutex results_mu;
    logs.assign(static_cast<std::size_t>(P + ck.spares), {});
    machine.run([&](camb::RankCtx& ctx) {
      ckpt::run_resilient<T, Output>(
          ctx, rcfg, d.ckpt_body, &results, &results_mu,
          &logs[static_cast<std::size_t>(ctx.rank())]);
    });
    for (int L = 0; L < P; ++L) {
      std::optional<Output>& result = results[static_cast<std::size_t>(L)];
      CAMB_CHECK_MSG(result.has_value(),
                     "checkpointed run ended without an output for a logical "
                     "rank");
      outputs[static_cast<std::size_t>(L)] = std::move(*result);
    }
  } else {
    machine.run([&](camb::RankCtx& ctx) {
      PlainSession<T> session(ctx);
      outputs[static_cast<std::size_t>(ctx.rank())] = d.body(session);
    });
  }

  RunReport report = report_from_machine(machine, opts);
  report.lower_bound_words = lower_bound_for(d.shape, P, opts);
  if (ck.enabled()) {
    fill_resilience_report(report, machine, opts, logs, P, d.steps, d.predict,
                           d.snapshot_words);
  } else if (d.predict) {
    i64 worst = 0;
    for (int r = 0; r < P; ++r) worst = std::max(worst, d.predict(r));
    report.predicted_critical_recv = worst;
    report.predicted_control_words = d.control_words;
  }
  if (d.abft) {
    report.recovery.abft = true;
    if (report.lower_bound_words > 0) {
      report.recovery.overhead_ratio =
          report.measured_critical_recv / report.lower_bound_words;
    }
  }
  if (d.hook && !ck.enabled()) d.hook(report, machine, outputs);

  if (opts.verify != VerifyMode::kNone) {
    Matrix<T> c(d.shape.n1, d.shape.n3);
    for (const Output& out : outputs) place_output<T>(c, out);
    report.output_hash = hash_matrix<T>(c);
    report.max_abs_error = check_result_pattern<T>(d.shape, c, opts.verify,
                                                   d.integer_inputs);
    report.verified = true;
  }
  return report;
}

/// Every run_<algo> enters here: bridge the options' dtype to a scalar
/// type, have `describe` build the algorithm's descriptor for it, and run
/// the pipeline.
template <typename Describe>
RunReport run_pipeline(const RunOptions& opts, Describe&& describe) {
  return dispatch_dtype(opts.dtype, [&](auto tag) {
    return run_descriptor(describe(tag), opts);
  });
}

/// The ABFT hook: inject the seeded memory-SDC flips into the owned output
/// tiles, then run the algorithm's checksum correction `correct(outputs)` —
/// also under message-only SDC, where a clean syndrome set is the proof
/// that the transport let nothing through.
template <typename T, typename Output, typename Correct>
auto abft_correction_hook(const RunOptions& opts, Correct correct) {
  return [&opts, correct](RunReport& report, camb::Machine& machine,
                          std::vector<Output>& outputs) {
    if (!opts.sdc.enabled() || machine.crash_outcome().any_crashed()) return;
    i64 mem_flips = 0;
    for (std::size_t r = 0; r < outputs.size(); ++r) {
      if (opts.sdc.mem_rate > 0 &&
          maybe_flip_entry<T>(opts.sdc.mem_seed(opts.perturb.master_seed),
                              static_cast<int>(r), opts.sdc.mem_rate,
                              own_tile<T>(outputs[r]))) {
        ++mem_flips;
      }
    }
    const AbftCorrection corr = correct(outputs);
    report.corruption.injected_mem_flips = mem_flips;
    report.corruption.detected_by_checksums = corr.detected;
    report.corruption.corrected_by_abft = corr.corrected;
    report.corruption.escaped = corr.uncorrected;
    for (int r : corr.corrected_ranks) {
      machine.stats().transport_mut(r).corrections += 1;
    }
  };
}

/// The elastic hook: the shrink-and-regrid record, and the zero-tolerance
/// prediction for the agreed failed set — base words when clean,
/// base-at-P′ + shrink flood + migration tax when crashed.
template <typename T>
auto elastic_hook(const RunOptions& opts, const Shape& shape,
                  std::function<ElasticPrediction(const std::vector<int>&)>
                      predict) {
  return [&opts, shape, predict](RunReport& report, camb::Machine& machine,
                                 std::vector<ElasticRankOutputT<T>>& outputs) {
    // The agreed outcome lives in the deepest-recovering survivor: a rank
    // that retired after a clean attempt 0 reports rounds = 0 even when its
    // peers went on to shrink without it.
    const std::vector<int>& crashed = machine.crash_outcome().crashed;
    const ElasticRankOutputT<T>* view = nullptr;
    for (std::size_t r = 0; r < outputs.size(); ++r) {
      if (contains(crashed, static_cast<int>(r))) continue;
      if (view == nullptr || outputs[r].rounds > view->rounds) {
        view = &outputs[r];
      }
    }
    if (view == nullptr) {
      throw Error("elastic: every rank crashed; nothing to report");
    }

    ElasticReport& el = report.elastic;
    el.enabled = true;
    el.rounds = view->rounds;
    el.failed = view->failed;
    el.survivors = view->survivors;
    el.active_ranks = view->active_ranks;
    el.grid = view->final_grid;
    const camb::CommStats& stats = machine.stats();
    for (int r = 0; r < stats.nprocs(); ++r) {
      const double regrid_w =
          stats.rank_phase(r, coll::kPhaseElasticRegrid).words_received();
      const double shrink_w =
          stats.rank_phase(r, kPhaseElasticShrink).words_received();
      el.migration_recv_words = std::max(el.migration_recv_words, regrid_w);
      el.shrink_recv_words = std::max(el.shrink_recv_words, shrink_w);
      el.exec_recv_words =
          std::max(el.exec_recv_words,
                   stats.rank_total(r).words_received() - regrid_w - shrink_w);
    }
    el.bound_words_at_pprime = lower_bound_for(shape, el.active_ranks, opts);
    if (el.bound_words_at_pprime > 0) {
      el.overhead_vs_bound = el.exec_recv_words / el.bound_words_at_pprime;
    }

    // Split data elements (dtype-scaled) from the shrink control words
    // (fixed f64 mask payloads) the way predicted_words() recombines them;
    // the split commutes with the max because the control words are
    // uniform over survivors and the failed receive nothing.
    const ElasticPrediction pred = predict(view->failed);
    const double width = dtype_width_words(opts.dtype);
    i64 max_elems = 0;
    for (std::size_t r = 0; r < outputs.size(); ++r) {
      const double data_words =
          pred.rank_migration_words[r] + pred.rank_exec_words[r];
      max_elems = std::max(max_elems,
                           static_cast<i64>(std::llround(data_words / width)));
    }
    report.predicted_critical_recv = max_elems;
    report.predicted_control_words =
        static_cast<i64>(std::llround(pred.shrink_words));
  };
}

/// The elastic twins' runner switch, forced on.
ElasticConfig elastic_config(const RunOptions& opts) {
  ElasticConfig ecfg = opts.elastic;
  ecfg.enabled = true;
  return ecfg;
}

}  // namespace

// ---- The descriptors ------------------------------------------------------

RunReport run_grid3d(const Grid3dConfig& cfg, const RunOptions& opts) {
  return run_pipeline(opts, [&]<typename T>(std::type_identity<T>) {
    const auto body = [&cfg](auto& s) { return grid3d_body<T>(s, cfg); };
    return Descriptor<T, Grid3dRankOutputT<T>>{
        .name = "grid3d",
        .shape = cfg.shape,
        .nprocs = cfg.grid.total(),
        .integer_inputs = cfg.integer_inputs,
        .body = body,
        .ckpt_body = body,
        .steps = grid3d_ckpt_steps(cfg),
        .snapshot_words = [&cfg](int L, i64 step) {
          return grid3d_ckpt_snapshot_words(cfg, L, step);
        },
        .predict = [&cfg](int L) {
          return grid3d_predicted_recv_words(cfg, L);
        },
    };
  });
}

RunReport run_grid3d_staged(const Grid3dStagedConfig& cfg,
                            const RunOptions& opts) {
  return run_pipeline(opts, [&]<typename T>(std::type_identity<T>) {
    const auto body = [&cfg](auto& s) { return grid3d_staged_body<T>(s, cfg); };
    return Descriptor<T, Grid3dStagedRankOutputT<T>>{
        .name = "grid3d_staged",
        .shape = cfg.shape,
        .nprocs = cfg.grid.total(),
        .body = body,
        .ckpt_body = body,
        .steps = grid3d_staged_ckpt_steps(cfg),
        .snapshot_words = [&cfg](int L, i64 step) {
          return grid3d_staged_ckpt_snapshot_words(cfg, L, step);
        },
        .predict = [&cfg](int L) {
          return grid3d_staged_predicted_recv_words(cfg, L);
        },
    };
  });
}

RunReport run_grid3d_agarwal(const Grid3dAgarwalConfig& cfg,
                             const RunOptions& opts) {
  return run_pipeline(opts, [&]<typename T>(std::type_identity<T>) {
    const auto body = [&cfg](auto& s) {
      return grid3d_agarwal_body<T>(s, cfg);
    };
    return Descriptor<T, Grid3dRankOutputT<T>>{
        .name = "grid3d_agarwal",
        .shape = cfg.shape,
        .nprocs = cfg.grid.total(),
        .body = body,
        .ckpt_body = body,
        .steps = grid3d_agarwal_ckpt_steps(cfg),
        .snapshot_words = [&cfg](int L, i64 step) {
          return grid3d_agarwal_ckpt_snapshot_words(cfg, L, step);
        },
        .predict = [&cfg](int L) {
          return grid3d_agarwal_predicted_recv_words(cfg, L);
        },
    };
  });
}

RunReport run_carma(const CarmaConfig& cfg, const RunOptions& opts) {
  return run_pipeline(opts, [&]<typename T>(std::type_identity<T>) {
    const auto body = [&cfg](auto& s) { return carma_body<T>(s, cfg); };
    return Descriptor<T, CarmaRankOutputT<T>>{
        .name = "carma",
        .shape = cfg.shape,
        .nprocs = i64{1} << cfg.levels,
        .body = body,
        .ckpt_body = body,
        .steps = carma_ckpt_steps(cfg),
        .snapshot_words = [&cfg](int L, i64 step) {
          return carma_ckpt_snapshot_words(cfg, L, step);
        },
        .predict = [words = carma_predicted_recv_words(cfg)](int L) {
          return words[static_cast<std::size_t>(L)];
        },
    };
  });
}

RunReport run_alg25d(const Alg25dConfig& cfg, const RunOptions& opts) {
  return run_pipeline(opts, [&]<typename T>(std::type_identity<T>) {
    const auto body = [&cfg](auto& s) { return alg25d_body<T>(s, cfg); };
    return Descriptor<T, Block2DOutputT<T>>{
        .name = "alg25d",
        .shape = cfg.shape,
        .nprocs = cfg.g * cfg.g * cfg.c,
        .integer_inputs = cfg.integer_inputs,
        .body = body,
        .ckpt_body = body,
        .steps = alg25d_ckpt_steps(cfg),
        .snapshot_words = [&cfg](int L, i64 step) {
          return alg25d_ckpt_snapshot_words(cfg, L, step);
        },
        .predict = [&cfg](int L) {
          return alg25d_predicted_recv_words(cfg, L);
        },
    };
  });
}

RunReport run_summa(const SummaConfig& cfg, const RunOptions& opts) {
  return run_pipeline(opts, [&]<typename T>(std::type_identity<T>) {
    const auto body = [&cfg](auto& s) { return summa_body<T>(s, cfg); };
    return Descriptor<T, Block2DOutputT<T>>{
        .name = "summa",
        .shape = cfg.shape,
        .nprocs = cfg.g * cfg.g,
        .integer_inputs = cfg.integer_inputs,
        .body = body,
        .ckpt_body = body,
        .steps = summa_ckpt_steps(cfg),
        .snapshot_words = [&cfg](int L, i64 step) {
          return summa_ckpt_snapshot_words(cfg, L, step);
        },
        .predict = [&cfg](int L) {
          return summa_predicted_recv_words(cfg, L);
        },
    };
  });
}

RunReport run_cannon(const CannonConfig& cfg, const RunOptions& opts) {
  return run_pipeline(opts, [&]<typename T>(std::type_identity<T>) {
    const auto body = [&cfg](auto& s) { return cannon_body<T>(s, cfg); };
    return Descriptor<T, Block2DOutputT<T>>{
        .name = "cannon",
        .shape = cfg.shape,
        .nprocs = cfg.g * cfg.g,
        .body = body,
        .ckpt_body = body,
        .steps = cannon_ckpt_steps(cfg),
        .snapshot_words = [&cfg](int L, i64 step) {
          return cannon_ckpt_snapshot_words(cfg, L, step);
        },
        .predict = [&cfg](int L) {
          return cannon_predicted_recv_words(cfg, L);
        },
    };
  });
}

RunReport run_naive_bcast(const NaiveBcastConfig& cfg, i64 nprocs,
                          const RunOptions& opts) {
  const int P = static_cast<int>(nprocs);
  return run_pipeline(opts, [&]<typename T>(std::type_identity<T>) {
    const auto body = [&cfg](auto& s) { return naive_bcast_body<T>(s, cfg); };
    return Descriptor<T, Block2DOutputT<T>>{
        .name = "naive_bcast",
        .shape = cfg.shape,
        .nprocs = nprocs,
        .body = body,
        .ckpt_body = body,
        .steps = naive_bcast_ckpt_steps(cfg),
        .snapshot_words = [&cfg, P](int L, i64 step) {
          return naive_bcast_ckpt_snapshot_words(cfg, L, P, step);
        },
        .predict = [&cfg, P](int L) {
          return naive_bcast_predicted_recv_words(cfg, L, P);
        },
    };
  });
}

RunReport run_summa_abft(const SummaAbftConfig& cfg, const RunOptions& opts) {
  return run_pipeline(opts, [&]<typename T>(std::type_identity<T>) {
    using Output = SummaAbftOutputT<T>;
    const i64 P = cfg.base.g * cfg.base.g;
    return Descriptor<T, Output>{
        .name = "summa_abft",
        .shape = cfg.base.shape,
        .nprocs = P,
        .integer_inputs = abft_integer_inputs<T>(),
        .abft = true,
        .body = [&cfg](PlainSession<T>& s) {
          return summa_abft_rank<T>(s.ctx(), cfg);
        },
        .ckpt_body = [&cfg](ckpt::SessionT<T>& s) {
          return summa_abft_ckpt_rank<T>(s, cfg);
        },
        .steps = summa_abft_ckpt_steps(cfg),
        .snapshot_words = [&cfg](int L, i64 step) {
          return summa_abft_ckpt_snapshot_words(cfg, L, step);
        },
        .predict = [&cfg](int L) {
          return summa_abft_ckpt_base_recv_words(cfg, L);
        },
        // The shrink agreement's mask payloads: fixed 8-byte control words,
        // identical on every rank, so the split commutes with the max.
        .control_words = coll::shrink_recv_words_exact(static_cast<int>(P),
                                                       cfg.max_failures),
        .hook = abft_correction_hook<T, Output>(
            opts, [&cfg](std::vector<Output>& outputs) {
              return summa_abft_correct<T>(cfg, outputs);
            }),
    };
  });
}

RunReport run_grid3d_abft(const Grid3dAbftConfig& cfg,
                          const RunOptions& opts) {
  return run_pipeline(opts, [&]<typename T>(std::type_identity<T>) {
    using Output = Grid3dAbftOutputT<T>;
    const i64 P = cfg.base.grid.total();
    return Descriptor<T, Output>{
        .name = "grid3d_abft",
        .shape = cfg.base.shape,
        .nprocs = P,
        .integer_inputs = abft_integer_inputs<T>(),
        .abft = true,
        .body = [&cfg](PlainSession<T>& s) {
          return grid3d_abft_rank<T>(s.ctx(), cfg);
        },
        .ckpt_body = [&cfg](ckpt::SessionT<T>& s) {
          return grid3d_abft_ckpt_rank<T>(s, cfg);
        },
        .steps = grid3d_abft_ckpt_steps(cfg),
        .snapshot_words = [&cfg](int L, i64 step) {
          return grid3d_abft_ckpt_snapshot_words(cfg, L, step);
        },
        .predict = [&cfg](int L) {
          return grid3d_abft_ckpt_base_recv_words(cfg, L);
        },
        .control_words = coll::shrink_recv_words_exact(static_cast<int>(P),
                                                       cfg.max_failures),
        // The parity syndrome localizes the corrupted element but not which
        // fiber member holds it; one exact reference dot product per
        // candidate disambiguates.  The dot product is exact in every
        // dtype: the inputs are integer-valued (natively for exact scalars,
        // by the smallness of the integer pattern otherwise).
        .hook = abft_correction_hook<T, Output>(
            opts, [&cfg](std::vector<Output>& outputs) {
              Matrix<T> a, b;
              fill_inputs<T>(cfg.base.shape, abft_integer_inputs<T>(), a, b);
              return grid3d_abft_correct<T>(
                  cfg, outputs, [&](i64 row, i64 col) {
                    T acc = ScalarTraits<T>::zero();
                    for (i64 k = 0; k < cfg.base.shape.n2; ++k) {
                      acc += a(row, k) * b(k, col);
                    }
                    return acc;
                  });
            }),
    };
  });
}

RunReport run_summa_elastic(const SummaConfig& cfg, const RunOptions& opts) {
  return run_pipeline(opts, [&]<typename T>(std::type_identity<T>) {
    const int P = static_cast<int>(cfg.g * cfg.g);
    const ElasticConfig ecfg = elastic_config(opts);
    return Descriptor<T, ElasticRankOutputT<T>>{
        .name = "summa_elastic",
        .shape = cfg.shape,
        .nprocs = P,
        .integer_inputs = cfg.integer_inputs || abft_integer_inputs<T>(),
        .elastic = true,
        .body = [&cfg, ecfg](PlainSession<T>& s) {
          return summa_elastic_rank<T>(s.ctx(), cfg, ecfg);
        },
        .hook = elastic_hook<T>(
            opts, cfg.shape, [&cfg, &opts, ecfg, P](const std::vector<int>& f) {
              return summa_elastic_prediction(cfg, ecfg, f, P,
                                              dtype_width_words(opts.dtype));
            }),
    };
  });
}

RunReport run_grid3d_elastic(const Grid3dConfig& cfg, const RunOptions& opts) {
  return run_pipeline(opts, [&]<typename T>(std::type_identity<T>) {
    const int P = static_cast<int>(cfg.grid.total());
    const ElasticConfig ecfg = elastic_config(opts);
    return Descriptor<T, ElasticRankOutputT<T>>{
        .name = "grid3d_elastic",
        .shape = cfg.shape,
        .nprocs = P,
        .integer_inputs = cfg.integer_inputs || abft_integer_inputs<T>(),
        .elastic = true,
        .body = [&cfg, ecfg](PlainSession<T>& s) {
          return grid3d_elastic_rank<T>(s.ctx(), cfg, ecfg);
        },
        .hook = elastic_hook<T>(
            opts, cfg.shape, [&cfg, &opts, ecfg, P](const std::vector<int>& f) {
              return grid3d_elastic_prediction(cfg, ecfg, f, P,
                                               dtype_width_words(opts.dtype));
            }),
    };
  });
}

RunReport run_alg25d_elastic(const Alg25dConfig& cfg, const RunOptions& opts) {
  return run_pipeline(opts, [&]<typename T>(std::type_identity<T>) {
    const int P = static_cast<int>(cfg.g * cfg.g * cfg.c);
    const ElasticConfig ecfg = elastic_config(opts);
    return Descriptor<T, ElasticRankOutputT<T>>{
        .name = "alg25d_elastic",
        .shape = cfg.shape,
        .nprocs = P,
        .integer_inputs = cfg.integer_inputs || abft_integer_inputs<T>(),
        .elastic = true,
        .body = [&cfg, ecfg](PlainSession<T>& s) {
          return alg25d_elastic_rank<T>(s.ctx(), cfg, ecfg);
        },
        .hook = elastic_hook<T>(
            opts, cfg.shape, [&cfg, &opts, ecfg, P](const std::vector<int>& f) {
              return alg25d_elastic_prediction(cfg, ecfg, f, P,
                                               dtype_width_words(opts.dtype));
            }),
    };
  });
}

}  // namespace camb::mm
