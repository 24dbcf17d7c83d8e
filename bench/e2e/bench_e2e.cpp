// bench_e2e — the end-to-end benchmark of the cambounds library.
//
// One process drives one workload through the public library API in a
// closed loop: a single caller, and each op starts when the previous one
// returns, like a sweep script or a `cambounds plan --serve` client.  Every
// op is verified.  The last line of stdout is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured on the
// library's own entry points with nothing in between.  With --trace 1 the
// same ops are decomposed into their top-level public calls, each wrapped in
// a span recorded by this file, and the work inside Machine::run is replayed
// with the op's exact arguments to give per-layer busy times.  Nothing under
// src/ is instrumented.  README.md lists the workloads and metrics; run.py
// builds this binary and measures set-up time in fresh processes.
//
// Usage: bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--timeline PATH] [--quick] [--setup-probe]
//   --quick        one measured pass, no timing claims (the ctest smoke)
//   --setup-probe  print {"setup_s": x} after the first cold pass and exit
//   --timeline     with --trace 1: write the spans as Chrome trace-event JSON
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "collectives/allgather.hpp"
#include "collectives/grid_comm.hpp"
#include "collectives/reduce_scatter.hpp"
#include "collectives/rollback.hpp"
#include "core/bounds.hpp"
#include "machine/machine.hpp"
#include "matmul/algorithm_registry.hpp"
#include "matmul/grid3d.hpp"
#include "matmul/local_gemm.hpp"
#include "matmul/runner.hpp"
#include "matmul/summa.hpp"
#include "planner/planner.hpp"

namespace {

using namespace camb;
using Clock = std::chrono::steady_clock;

/// Nanoseconds since `origin`, the clock every span and op timing uses.
i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Process entry, taken before anything else in main runs.
i64 g_origin_ns = 0;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int pool_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, hw > 0 ? hw : 1u));
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out at exit (--timeline).
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  int parent;  ///< index of the enclosing span, -1 for a root
  i64 t0_ns;
  i64 t1_ns;
};

class Tracer {
 public:
  int begin(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, parent, now_ns(), 0});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void end() {
    spans_[static_cast<std::size_t>(open_.back())].t1_ns = now_ns();
    open_.pop_back();
  }
  i64 duration_ns(int span) const {
    const Span& s = spans_[static_cast<std::size_t>(span)];
    return s.t1_ns - s.t0_ns;
  }
  /// Summed duration of the direct children of `root`, by name.
  std::map<std::string, double> children_ns(int root) const {
    std::map<std::string, double> out;
    for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans_.size();
         ++i) {
      if (spans_[i].parent == root) {
        out[spans_[i].name] +=
            static_cast<double>(spans_[i].t1_ns - spans_[i].t0_ns);
      }
    }
    return out;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name) : tracer_(tracer) {
    tracer_.begin(name);
  }
  ~SpanScope() { tracer_.end(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
};

/// Chrome trace-event JSON: one track (tid) per workload, complete ("X")
/// events nest by time containment, timestamps in µs since process entry.
bool write_timeline(const std::string& path, const std::string& workload,
                    int track, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
               "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
               track, workload.c_str());
  for (const Span& s : spans) {
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                 "%d, \"ts\": %.3f, \"dur\": %.3f}",
                 s.name, track,
                 static_cast<double>(s.t0_ns - g_origin_ns) / 1e3,
                 static_cast<double>(s.t1_ns - s.t0_ns) / 1e3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Metrics and the result line.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

void print_result(bool correct, i64 attempted, i64 failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", static_cast<std::int64_t>(attempted),
              static_cast<std::int64_t>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Failures are counted, and the first few are described on stderr.
class FailureLog {
 public:
  void record(const std::string& what) {
    if (++count_ <= 5) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
  i64 count() const { return count_; }

 private:
  i64 count_ = 0;
};

// ---------------------------------------------------------------------------
// Workload interface.
// ---------------------------------------------------------------------------

/// Per-layer numbers of one traced run, keyed by metric name, and the ops
/// (queries, for the planner) it ran.
struct TraceResult {
  std::map<std::string, double> values;
  i64 ops = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// The bench's own inputs (excluded from set-up time).
  virtual void generate(std::uint64_t seed) = 0;
  /// One whole pass of the op mix; appends one latency sample (µs) per op
  /// (per block of queries for the planner) and returns the ops it ran.
  virtual i64 pass(std::vector<double>& latency_us, FailureLog& fails) = 0;
  /// Verification deferred past the timed pass (planner oracle checks).
  virtual void check_pass(FailureLog& fails) { (void)fails; }
  /// Σ words ÷ Σ Theorem 3 bound over one pass (exact).
  virtual double words_over_bound() = 0;
  /// The --trace run: decomposed ops with spans plus layer replays, within
  /// roughly `seconds`.  Names it leaves out of the values are reported as
  /// 0 (layer not exercised by this workload).
  virtual TraceResult trace_run(Tracer& tracer, double seconds, bool quick,
                                FailureLog& fails) = 0;
};

// ---------------------------------------------------------------------------
// Run workloads: registry runs on the simulated machine.
// ---------------------------------------------------------------------------

/// How the traced run decomposes a case into public calls.
enum class Decompose {
  kGrid3d,      ///< planner → Machine → grid3d_rank → check_result
  kSummaCkpt,   ///< Machine(P + spares) → run_resilient(summa_ckpt_rank)
  kOpaque,      ///< one registry run_opts call (not replayable from outside)
};

struct RunCase {
  std::string label;
  const mm::AlgorithmInfo* algo = nullptr;
  core::Shape shape;
  i64 P = 1;
  mm::RunOptions opts;
  Decompose decompose = Decompose::kOpaque;
  /// Faults are injected, so each op draws its own master seed and is
  /// checked against a clean twin run at set-up.
  bool faulted = false;
  // The clean twin: set from the first run of a clean case, or from an
  // explicit fault-free run of a faulted one.
  bool has_twin = false;
  std::uint64_t twin_hash = 0;
  double twin_words = 0;  ///< measured critical-path received words
  double bound_words = 0;  ///< Theorem 3 bound in the run's words
  std::vector<double> twin_rank_recv;
  std::map<std::string, double> twin_phases;
};

double tolerance(DType dtype) {
  switch (dtype) {
    case DType::kI64:
      return 0.0;
    case DType::kF32:
      return 1e-3;
    default:
      return 1e-9;
  }
}

mm::RunOptions clean_options(const mm::RunOptions& opts) {
  mm::RunOptions clean = opts;
  clean.perturb.profile = "none";
  clean.sdc = mm::SdcConfig{};
  clean.crash = mm::CrashConfig{};
  clean.checkpoint = mm::CheckpointConfig{};
  return clean;
}

/// FNV-1a over the exact bits of every entry, row-major: the same
/// fingerprint RunReport::output_hash carries, for the decomposed ops.
std::uint64_t hash_matrix(const MatrixD& m) {
  std::uint64_t h = 1469598103934665603ull;
  unsigned char bytes[sizeof(double)];
  for (i64 i = 0; i < m.rows(); ++i) {
    for (i64 j = 0; j < m.cols(); ++j) {
      const double v = m(i, j);
      std::memcpy(bytes, &v, sizeof(double));
      for (unsigned char b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

/// What ops moved and modelled, summed over their runs.
struct OpCounts {
  double measured_words = 0;
  double msgs = 0;
  double sim_time = 0;
  double retransmits = 0;
  double acks = 0;
  double rollback_rounds = 0;
  double ckpt_words = 0;

  void add(const mm::RunReport& r) {
    measured_words += r.measured_critical_recv;
    for (i64 m : r.rank_messages) msgs += static_cast<double>(m);
    sim_time += r.simulated_time;
    retransmits += static_cast<double>(r.corruption.retransmits);
    acks += static_cast<double>(r.corruption.acks);
    if (r.resilience.enabled) {
      rollback_rounds += r.resilience.rounds;
      ckpt_words += r.resilience.checkpoint_recv_words +
                    r.resilience.restream_recv_words;
    }
  }
};

/// Machine wiring of RunOptions, through the same public calls the runner
/// makes (fault profile with the SDC rate merged in, reliable transport,
/// crash plan).
void configure(Machine& machine, const mm::RunOptions& opts) {
  machine.set_scheduler(opts.scheduler);
  if (opts.perturb.enabled() || opts.sdc.message_sdc()) {
    FaultProfile profile = opts.perturb.enabled()
                               ? fault_profile_from_spec(opts.perturb.profile)
                               : FaultProfile{};
    if (opts.sdc.message_sdc()) {
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
}

/// Median wall time of `fn` over `reps` calls, in ns.
template <typename Fn>
double median_ns(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const i64 t0 = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(std::move(t));
}

class RunMix : public Workload {
 public:
  explicit RunMix(const std::string& name) : name_(name) {}

  void generate(std::uint64_t seed) override {
    seed_ = seed;
    const SchedulerSpec fibers{SchedulerKind::kFibers, pool_workers(), 0, 0};
    mm::RunOptions base;
    base.perturb.master_seed = seed;
    if (name_ == "compute_bound") {
      base.verify = mm::VerifyMode::kFreivalds;
      base.scheduler = fibers;
      add("grid3d_optimal", {kComputeN, kComputeN, kComputeN}, 8, base,
          Decompose::kGrid3d);
    } else if (name_ == "latency_bound") {
      base.verify = mm::VerifyMode::kReference;
      base.scheduler = fibers;
      add("grid3d_optimal", {128, 128, 128}, 4096, base, Decompose::kGrid3d);
    } else if (name_ == "resilient") {
      base.verify = mm::VerifyMode::kReference;
      base.scheduler = fibers;
      mm::RunOptions sdc = base;
      sdc.sdc.message_rate = 0.05;
      sdc.sdc.reliable = true;
      sdc.perturb.profile = "heavy";
      add("grid3d_optimal", {kResilientN, kResilientN, kResilientN}, 27, sdc,
          Decompose::kGrid3d);
      mm::RunOptions ckpt = base;
      ckpt.checkpoint.interval = 1;
      ckpt.checkpoint.spares = 1;
      ckpt.crash.ranks = {3};
      add("summa", {kResilientN, kResilientN, kResilientN}, 16, ckpt,
          Decompose::kSummaCkpt);
    } else {  // registry_sweep
      base.verify = mm::VerifyMode::kReference;
      base.scheduler = SchedulerSpec{SchedulerKind::kThreads, 0, 0, 0};
      // 1D, 2D and 3D regimes of arXiv:1202.3177 plus non-divisible
      // dimensions, at P ≤ 16 (thread-per-rank oversubscription ≤ 4×).
      const struct {
        core::Shape shape;
        i64 P;
      } points[] = {{{192, 24, 12}, 4},  {{192, 24, 12}, 8},
                    {{96, 96, 12}, 9},   {{128, 128, 8}, 16},
                    {{64, 64, 64}, 8},   {{48, 48, 48}, 16},
                    {{97, 61, 35}, 6},   {{50, 70, 30}, 9},
                    {{45, 33, 90}, 16}};
      for (DType dtype : {DType::kF64, DType::kF32, DType::kI64}) {
        for (const auto& pt : points) {
          for (const mm::AlgorithmInfo& algo : mm::algorithm_registry()) {
            if (!algo.supports(pt.shape, pt.P)) continue;
            mm::RunOptions o = base;
            o.dtype = dtype;
            add(algo.name, pt.shape, pt.P, o, Decompose::kOpaque);
          }
        }
      }
    }
    std::fprintf(stderr, "%s: %zu runs per op\n", name_.c_str(),
                 cases_.size());
  }

  i64 pass(std::vector<double>& latency_us, FailureLog& fails) override {
    OpCounts counts;
    const i64 t0 = now_ns();
    run_op(counts, fails);
    latency_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    return 1;
  }

  /// Faulted cases count their clean twin's words: the fault taxes are
  /// per-layer metrics, and this ratio must not depend on the seed.
  double words_over_bound() override {
    double words = 0, bound = 0;
    for (const RunCase& c : cases_) {
      words += c.twin_words;
      bound += c.bound_words;
    }
    return words / bound;
  }

  TraceResult trace_run(Tracer& tracer, double seconds, bool quick,
                        FailureLog& fails) override;

 private:
  static constexpr i64 kComputeN = 768;
  /// Small enough that the serial reference check stays a minor part of
  /// the op and the fault layers dominate it.
  static constexpr i64 kResilientN = 96;

  void add(const std::string& algo, core::Shape shape, i64 P,
           const mm::RunOptions& opts, Decompose decompose) {
    RunCase c;
    c.algo = &mm::algorithm_by_name(algo);
    c.label = algo + "~" + dtype_name(opts.dtype) + " " +
              std::to_string(shape.n1) + "x" + std::to_string(shape.n2) + "x" +
              std::to_string(shape.n3) + " P=" + std::to_string(P);
    c.shape = shape;
    c.P = P;
    c.opts = opts;
    c.decompose = decompose;
    c.faulted = opts.sdc.enabled() || opts.crash.enabled() ||
                opts.perturb.enabled();
    cases_.push_back(std::move(c));
  }

  /// Options for op number `op`: faulted cases draw a fresh master seed per
  /// op, so one run averages over many fault patterns.
  mm::RunOptions options_for(const RunCase& c, i64 op) const {
    mm::RunOptions o = c.opts;
    if (c.faulted) o.perturb.master_seed = derive_seed(seed_, 100 + op);
    return o;
  }

  static void set_twin(RunCase& c, const mm::RunReport& r) {
    c.has_twin = true;
    c.twin_hash = r.output_hash;
    c.twin_words = r.measured_critical_recv;
    c.bound_words = r.lower_bound_words;
    c.twin_rank_recv = r.rank_recv_words;
    c.twin_phases = r.phase_recv;
  }

  /// "" when the report passes every check, else the reason.
  static std::string check(const RunCase& c, const mm::RunReport& r) {
    if (!r.verified) return "not verified";
    if (!(r.max_abs_error <= tolerance(r.dtype))) {
      return "residual " + std::to_string(r.max_abs_error);
    }
    if (r.output_hash != c.twin_hash) return "output hash != clean twin";
    if (c.opts.sdc.message_sdc()) {
      // Healed SDC: the repair tax lands in the "transport" phase, and every
      // algorithm phase moves exactly the clean twin's words.
      std::map<std::string, double> phases = r.phase_recv;
      phases.erase("transport");
      if (phases != c.twin_phases) return "algorithm-phase words != twin";
    } else if (r.predicted_critical_recv >= 0 &&
               r.measured_critical_recv != r.predicted_words()) {
      return "measured words " + std::to_string(r.measured_critical_recv) +
             " != predicted " + std::to_string(r.predicted_words());
    }
    return "";
  }

  void make_twins(FailureLog& fails) {
    for (RunCase& c : cases_) {
      if (!c.faulted || c.has_twin) continue;
      try {
        set_twin(c, c.algo->run_opts(c.shape, c.P, clean_options(c.opts)));
      } catch (const std::exception& e) {
        fails.record(c.label + " clean twin: " + e.what());
      }
    }
  }

  /// One op: every case once through the registry.  A failed op records
  /// its first failure and stops.
  void run_op(OpCounts& counts, FailureLog& fails) {
    make_twins(fails);
    const i64 op = ops_++;
    for (RunCase& c : cases_) {
      std::string why;
      try {
        const mm::RunReport r =
            c.algo->run_opts(c.shape, c.P, options_for(c, op));
        if (!c.has_twin) set_twin(c, r);
        why = check(c, r);
        counts.add(r);
      } catch (const std::exception& e) {
        why = e.what();
      }
      if (!why.empty()) {
        fails.record(c.label + ": " + why);
        return;
      }
    }
  }

  // Traced decompositions (defined below); each returns "" or the reason
  // the op failed.
  std::string traced_grid3d(Tracer& tracer, const RunCase& c,
                            const mm::RunOptions& o);
  std::string traced_summa_ckpt(Tracer& tracer, const RunCase& c,
                                const mm::RunOptions& o);
  void traced_op(Tracer& tracer, FailureLog& fails);

  std::string name_;
  std::uint64_t seed_ = 1;
  std::vector<RunCase> cases_;
  i64 ops_ = 0;
};

std::string RunMix::traced_grid3d(Tracer& tracer, const RunCase& c,
                                  const mm::RunOptions& o) {
  core::Grid3 grid;
  {
    SpanScope span(tracer, "planner.plan");
    grid = planner::GridPlanner::instance().plan({c.shape, c.P}).grid;
  }
  const mm::Grid3dConfig cfg{c.shape, grid};
  std::unique_ptr<Machine> machine;
  {
    SpanScope span(tracer, "machine.setup");
    machine = std::make_unique<Machine>(static_cast<int>(c.P),
                                        o.perturb.machine_seed());
    configure(*machine, o);
  }
  std::vector<mm::Grid3dRankOutputT<double>> outputs(
      static_cast<std::size_t>(c.P));
  {
    SpanScope span(tracer, "machine.run");
    machine->run([&](RankCtx& ctx) {
      outputs[static_cast<std::size_t>(ctx.rank())] =
          mm::grid3d_rank<double>(ctx, cfg);
    });
  }
  std::string why;
  {
    SpanScope span(tracer, "matmul.verify");
    MatrixD cm(c.shape.n1, c.shape.n3);
    for (const auto& out : outputs) {
      const mm::BlockChunk& ch = out.c_chunk;
      for (i64 f = 0; f < ch.flat_size; ++f) {
        const i64 flat = ch.flat_start + f;
        cm(ch.row0 + flat / ch.cols, ch.col0 + flat % ch.cols) =
            out.c_data[static_cast<std::size_t>(f)];
      }
    }
    if (!(mm::check_result(c.shape, cm, o.verify) <= tolerance(DType::kF64))) {
      why = "residual over tolerance";
    } else if (hash_matrix(cm) != c.twin_hash) {
      why = "output hash != clean twin";
    }
  }
  {
    SpanScope span(tracer, "model.report");
    const CommStats& stats = machine->stats();
    if (o.sdc.message_sdc()) {
      for (const auto& [phase, words] : c.twin_phases) {
        if (stats.phase_critical_path_received_words(phase) != words) {
          why = "algorithm-phase words != twin";
        }
      }
    } else if (stats.critical_path_received_words() !=
               static_cast<double>(
                   mm::grid3d_predicted_critical_recv_words(cfg))) {
      why = "measured words != predicted";
    }
    (void)core::memory_independent_bound(c.shape, static_cast<double>(c.P));
  }
  {
    SpanScope span(tracer, "machine.teardown");
    machine.reset();
  }
  return why;
}

std::string RunMix::traced_summa_ckpt(Tracer& tracer, const RunCase& c,
                                      const mm::RunOptions& o) {
  const mm::SummaConfig cfg{c.shape, isqrt(c.P)};
  const int P = static_cast<int>(c.P);
  const int spares = o.checkpoint.spares;
  std::unique_ptr<Machine> machine;
  {
    SpanScope span(tracer, "machine.setup");
    machine = std::make_unique<Machine>(P + spares, o.perturb.machine_seed());
    configure(*machine, o);
  }
  ckpt::ResilientConfig rcfg;
  rcfg.nprocs = P;
  rcfg.spares = spares;
  rcfg.interval = o.checkpoint.interval;
  rcfg.buddy_stride = o.checkpoint.buddy_stride;
  using Out = mm::Block2DOutputT<double>;
  std::vector<std::optional<Out>> results(static_cast<std::size_t>(P));
  std::mutex results_mu;
  std::vector<ckpt::RunLog> logs(static_cast<std::size_t>(P + spares));
  const std::function<Out(ckpt::SessionT<double>&)> body =
      [&](ckpt::SessionT<double>& s) {
        return mm::summa_ckpt_rank<double>(s, cfg);
      };
  {
    SpanScope span(tracer, "machine.run");
    machine->run([&](RankCtx& ctx) {
      ckpt::run_resilient<double, Out>(
          ctx, rcfg, body, &results, &results_mu,
          &logs[static_cast<std::size_t>(ctx.rank())]);
    });
  }
  std::string why;
  {
    SpanScope span(tracer, "matmul.verify");
    MatrixD cm(c.shape.n1, c.shape.n3);
    for (const auto& out : results) {
      if (!out.has_value()) return "no output for a logical rank";
      cm.set_block(out->row0, out->col0, out->block);
    }
    if (!(mm::check_result(c.shape, cm, o.verify) <= tolerance(DType::kF64))) {
      why = "residual over tolerance";
    } else if (hash_matrix(cm) != c.twin_hash) {
      why = "output hash != clean twin";
    }
  }
  {
    SpanScope span(tracer, "model.report");
    (void)machine->stats().critical_path_received_words();
    (void)core::memory_independent_bound(c.shape, static_cast<double>(c.P));
  }
  {
    SpanScope span(tracer, "machine.teardown");
    machine.reset();
  }
  return why;
}

void RunMix::traced_op(Tracer& tracer, FailureLog& fails) {
  make_twins(fails);
  const i64 op = ops_++;
  for (const RunCase& c : cases_) {
    const mm::RunOptions o = options_for(c, op);
    std::string why;
    try {
      switch (c.decompose) {
        case Decompose::kGrid3d:
          why = traced_grid3d(tracer, c, o);
          break;
        case Decompose::kSummaCkpt:
          why = traced_summa_ckpt(tracer, c, o);
          break;
        case Decompose::kOpaque: {
          SpanScope span(tracer, "matmul.run");
          why = check(c, c.algo->run_opts(c.shape, c.P, o));
          break;
        }
      }
    } catch (const std::exception& e) {
      why = e.what();
    }
    if (!why.empty()) {
      fails.record(c.label + " (traced): " + why);
      return;
    }
  }
}

// --- Layer replays: each runs outside the op with the op's exact arguments.

/// Machine construction + configuration, and an empty-body run, at one
/// (P, options): the machine layer's fixed cost per run.
struct SchedProbe {
  double setup_ns = 0;
  double run_ns = 0;
};

SchedProbe probe_sched(int P, const mm::RunOptions& o, int reps) {
  std::vector<double> setup, run;
  for (int i = 0; i < reps; ++i) {
    const i64 t0 = now_ns();
    Machine machine(P, o.perturb.machine_seed());
    machine.set_scheduler(o.scheduler);
    const i64 t1 = now_ns();
    machine.run([](RankCtx&) {});
    const i64 t2 = now_ns();
    setup.push_back(static_cast<double>(t1 - t0));
    run.push_back(static_cast<double>(t2 - t1));
  }
  return {median(setup), median(run)};
}

/// ns per send+recv pair on a P-rank ring, the empty run subtracted.
/// `sdc_rate` > 0 adds the reliable transport under that SDC profile.
double probe_ring(int P, const SchedulerSpec& sched, double sdc_rate,
                  double empty_run_ns, int reps) {
  const int rounds = std::max(4, 200000 / P);
  const double t = median_ns(reps, [&] {
    Machine machine(P);
    machine.set_scheduler(sched);
    if (sdc_rate > 0) {
      FaultProfile profile;
      profile.drop_prob = profile.flip_prob = profile.dup_prob = sdc_rate;
      machine.enable_faults(profile, 7, 11);
      machine.enable_reliable_transport(11);
    }
    machine.run([&](RankCtx& ctx) {
      const int me = ctx.rank(), p = ctx.nprocs();
      std::vector<double> payload(1, 1.0);
      for (int r = 0; r < rounds; ++r) {
        ctx.send((me + 1) % p, r % 1000, std::move(payload));
        payload = ctx.recv((me + p - 1) % p, r % 1000);
      }
    });
  });
  return (t - empty_run_ns) / (static_cast<double>(P) * rounds);
}

TraceResult RunMix::trace_run(Tracer& tracer, double seconds, bool quick,
                              FailureLog& fails) {
  TraceResult result;
  std::map<std::string, double>& v = result.values;
  // Interleave untraced and traced ops so drift hits both sides alike.
  std::vector<double> untraced_ns, traced_ns, spans_sum_ns;
  std::map<std::string, std::vector<double>> child_ns;
  OpCounts counts;
  i64 counted_ops = 0;
  const planner::PlannerStats plan_before =
      planner::GridPlanner::instance().stats();
  const i64 t_end = now_ns() + static_cast<i64>(seconds * 0.7e9);
  do {
    const i64 t0 = now_ns();
    run_op(counts, fails);
    untraced_ns.push_back(static_cast<double>(now_ns() - t0));
    ++counted_ops;
    const int root = tracer.begin("op");
    traced_op(tracer, fails);
    tracer.end();
    traced_ns.push_back(static_cast<double>(tracer.duration_ns(root)));
    double sum = 0;
    for (const auto& [name, ns] : tracer.children_ns(root)) {
      child_ns[name].push_back(ns);
      sum += ns;
    }
    spans_sum_ns.push_back(sum);
  } while (!quick && (now_ns() < t_end || untraced_ns.size() < 3));
  result.ops = 2 * counted_ops;
  const planner::PlannerStats plan_after =
      planner::GridPlanner::instance().stats();
  const double hits =
      static_cast<double>(plan_after.point.hits - plan_before.point.hits);
  v["planner.hit_frac"] =
      hits / (hits + static_cast<double>(plan_after.point.misses -
                                         plan_before.point.misses));

  const double op_ns = median(untraced_ns);
  const double n = static_cast<double>(counted_ops);
  const auto span_us = [&](const char* name) {
    auto it = child_ns.find(name);
    return it == child_ns.end() ? 0.0 : median(it->second) / 1e3;
  };
  v["machine.msgs_per_op"] = counts.msgs / n;
  v["model.sim_time_per_op"] = counts.sim_time / n;
  v["collectives.words_per_op"] = counts.measured_words / n;
  v["machine.retransmits_per_op"] = counts.retransmits / n;
  v["machine.acks_per_op"] = counts.acks / n;
  v["collectives.rollback_rounds_per_op"] = counts.rollback_rounds / n;
  v["collectives.ckpt_words_per_op"] = counts.ckpt_words / n;
  v["trace.overhead_frac"] = (median(traced_ns) - op_ns) / op_ns;
  v["matmul.verify_us"] = span_us("matmul.verify");
  v["machine.setup_us"] = span_us("machine.setup");
  v["planner.plan_us"] = span_us("planner.plan");

  // Replays.  Fixed repetition counts keep the probe cost bounded.
  const int reps = quick ? 1 : 5;
  std::map<std::pair<int, int>, SchedProbe> sched;  // (P, kind) → probe
  const auto sched_for = [&](int P, const mm::RunOptions& o) {
    const auto key = std::make_pair(P, static_cast<int>(o.scheduler.kind));
    auto it = sched.find(key);
    if (it == sched.end()) {
      it = sched.emplace(key, probe_sched(P, o, reps)).first;
    }
    return it->second;
  };
  double sched_ns = 0, setup_probe_ns = 0, verify_probe_ns = 0,
         plan_probe_ns = 0;
  for (const RunCase& c : cases_) {
    const int machine_p =
        static_cast<int>(c.P) + c.opts.checkpoint.spares;
    const SchedProbe sp = sched_for(machine_p, c.opts);
    sched_ns += sp.run_ns;
    setup_probe_ns += sp.setup_ns;
  }
  v["machine.sched_us"] = sched_ns / 1e3;
  v["machine.sched_share"] = sched_ns / op_ns;

  if (name_ == "registry_sweep") {
    // Rank bodies of 13 algorithms cannot all be replayed from outside: the
    // op is one opaque span per run, and the probes below give the busy
    // time of the layers around it.  What they leave is unattributed.
    std::map<std::tuple<i64, i64, i64, i64>, double> plan_cache;
    std::map<std::tuple<i64, i64, i64>, double> verify_cache;
    for (const RunCase& c : cases_) {
      const auto pk = std::make_tuple(c.shape.n1, c.shape.n2, c.shape.n3, c.P);
      if (!plan_cache.count(pk)) {
        plan_cache[pk] = median_ns(reps * 20, [&] {
          (void)planner::GridPlanner::instance().plan({c.shape, c.P});
        });
      }
      plan_probe_ns += plan_cache[pk];
      const auto vk = std::make_tuple(c.shape.n1, c.shape.n2, c.shape.n3);
      if (!verify_cache.count(vk)) {
        const MatrixD cm(c.shape.n1, c.shape.n3);
        verify_cache[vk] = median_ns(reps, [&] {
          (void)mm::check_result(c.shape, cm, mm::VerifyMode::kReference);
        });
      }
      verify_probe_ns += verify_cache[vk];
    }
    const double n_runs = static_cast<double>(cases_.size());
    v["planner.plan_us"] = plan_probe_ns / n_runs / 1e3;
    v["machine.setup_us"] = setup_probe_ns / 1e3;
    v["matmul.verify_us"] = verify_probe_ns / 1e3;
    v["trace.unattributed_frac"] =
        (op_ns - plan_probe_ns - setup_probe_ns - sched_ns - verify_probe_ns) /
        op_ns;
    v["machine.ns_per_msg"] =
        probe_ring(16, cases_.front().opts.scheduler, 0,
                   sched_for(16, cases_.front().opts).run_ns, reps);
    return result;
  }

  v["trace.unattributed_frac"] = (op_ns - median(spans_sum_ns)) / op_ns;

  // grid3d layers: the first grid3d case (the only one, or resilient's (a)).
  const RunCase* g = nullptr;
  for (const RunCase& c : cases_) {
    if (c.decompose == Decompose::kGrid3d) {
      g = &c;
      break;
    }
  }
  const int P = static_cast<int>(g->P);
  const mm::RunOptions clean = clean_options(g->opts);
  const SchedProbe sp = sched_for(P, clean);
  v["machine.ns_per_msg"] =
      probe_ring(P, clean.scheduler, 0, sp.run_ns, reps);
  if (g->opts.sdc.message_sdc()) {
    v["machine.transport_ns_per_msg"] = probe_ring(
        P, clean.scheduler, g->opts.sdc.message_rate, sp.run_ns, reps);
  }
  const core::Grid3 grid =
      planner::GridPlanner::instance().plan({g->shape, g->P}).grid;
  const mm::Grid3dConfig cfg{g->shape, grid};

  // Comm-only replay: the same GridComm and collective calls and counts
  // with zero-valued payloads — no fill, no GEMM — pinned per rank to the
  // library run's received words.
  std::vector<double> replay_ns;
  for (int rep = 0; rep < reps; ++rep) {
    Machine machine(P, clean.perturb.machine_seed());
    machine.set_scheduler(clean.scheduler);
    const i64 t0 = now_ns();
    machine.run([&](RankCtx& ctx) {
      const mm::Grid3dLayout layout = mm::grid3d_layout(cfg, ctx.rank());
      const coll::GridComm comms(ctx, cfg.grid);
      ctx.set_phase(mm::kPhaseAllgatherA);
      (void)coll::allgather(
          comms.fiber(2), layout.a_counts,
          std::vector<double>(static_cast<std::size_t>(layout.a.flat_size)),
          cfg.allgather);
      ctx.set_phase(mm::kPhaseAllgatherB);
      (void)coll::allgather(
          comms.fiber(0), layout.b_counts,
          std::vector<double>(static_cast<std::size_t>(layout.b.flat_size)),
          cfg.allgather);
      ctx.set_phase(mm::kPhaseReduceScatterC);
      (void)coll::reduce_scatter(
          comms.fiber(1), layout.c_counts,
          std::vector<double>(static_cast<std::size_t>(layout.c.block_size())),
          cfg.reduce_scatter);
    });
    replay_ns.push_back(static_cast<double>(now_ns() - t0));
    for (int r = 0; r < P; ++r) {
      if (machine.stats().rank_total(r).words_received() !=
          g->twin_rank_recv[static_cast<std::size_t>(r)]) {
        fails.record(g->label + ": comm-only replay words differ at rank " +
                     std::to_string(r));
        break;
      }
    }
  }
  v["collectives.comm_us"] = (median(replay_ns) - sp.run_ns) / 1e3;

  // Local work of every rank, on this one thread: input fill and GEMM on
  // each rank's exact block shapes.
  std::vector<mm::Grid3dLayout> layouts;
  for (int r = 0; r < P; ++r) layouts.push_back(mm::grid3d_layout(cfg, r));
  v["matmul.fill_cpu_us"] =
      median_ns(reps, [&] {
        for (const mm::Grid3dLayout& l : layouts) {
          (void)mm::fill_chunk_indexed<double>(l.a);
          (void)mm::fill_chunk_indexed<double>(l.b);
        }
      }) /
      1e3;
  std::map<std::tuple<i64, i64, i64>, i64> gemm_shapes;
  double flops = 0;
  for (const mm::Grid3dLayout& l : layouts) {
    ++gemm_shapes[std::make_tuple(l.a.rows, l.a.cols, l.b.cols)];
    flops += 2.0 * static_cast<double>(l.a.rows) *
             static_cast<double>(l.a.cols) * static_cast<double>(l.b.cols);
  }
  double gemm_ns = 0;
  for (const auto& [dims, count] : gemm_shapes) {
    const auto [rows, inner, cols] = dims;
    MatrixD a(rows, inner), b(inner, cols);
    a.fill_indexed(0, 0);
    b.fill_indexed(0, 0);
    gemm_ns += static_cast<double>(count) *
               median_ns(reps, [&] { (void)mm::gemm(a, b); });
  }
  v["matmul.gemm_cpu_us"] = gemm_ns / 1e3;
  v["matmul.flops_per_op"] = flops;
  v["matmul.gemm_gflops"] = flops / gemm_ns;

  MatrixD a(g->shape.n1, g->shape.n2), b(g->shape.n2, g->shape.n3);
  a.fill_indexed(0, 0);
  b.fill_indexed(0, 0);
  const double serial_ns =
      median_ns(quick ? 1 : 3, [&] { (void)mm::gemm(a, b); });
  v["matmul.serial_gemm_s"] = serial_ns / 1e9;
  v["matmul.parallel_eff"] =
      serial_ns / (op_ns * static_cast<double>(pool_workers()));
  return result;
}

// ---------------------------------------------------------------------------
// planner_zipf: GridPlanner::instance().plan() under a skewed query stream.
// ---------------------------------------------------------------------------

class PlannerZipf : public Workload {
 public:
  explicit PlannerZipf(bool quick) : pass_queries_(quick ? 1 << 16 : 1 << 20) {}

  void generate(std::uint64_t seed) override {
    // The 4,096 hot points and their Zipf ranks are fixed, so Σ cost ÷ Σ
    // bound is the same for every seed; the seed draws the query order and
    // the never-seen points.
    Rng fixed(0x5EED0F1A7);
    std::set<std::tuple<i64, i64, i64, i64>> seen;
    const auto draw_point = [&](Rng& rng) {
      for (;;) {
        const auto dim = [&] {
          return static_cast<i64>(std::exp2(rng.uniform(0.0, 13.0)));
        };
        planner::PlanRequest q;
        q.shape = {dim(), dim(), dim()};
        q.P = static_cast<i64>(std::exp2(rng.uniform(0.0, 16.0)));
        if (seen.insert({q.shape.n1, q.shape.n2, q.shape.n3, q.P}).second) {
          return q;
        }
      }
    };
    queries_.clear();
    for (int i = 0; i < kHotPoints; ++i) queries_.push_back(draw_point(fixed));
    std::vector<double> cdf(kHotPoints);
    double total = 0;
    for (int i = 0; i < kHotPoints; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
      cdf[static_cast<std::size_t>(i)] = total;
    }
    Rng rng(seed, 0x21bf);
    stream_.clear();
    sampled_positions_.clear();
    for (i64 j = 0; j < pass_queries_; ++j) {
      std::uint32_t idx;
      if (rng.uniform() < kColdShare) {
        idx = static_cast<std::uint32_t>(queries_.size());
        queries_.push_back(draw_point(rng));
      } else {
        const double u = rng.uniform() * total;
        idx = static_cast<std::uint32_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        idx = std::min<std::uint32_t>(idx, kHotPoints - 1);
      }
      if (rng.uniform() < kSampleShare) {
        idx |= kSampleBit;
        sampled_positions_.push_back(j);
      }
      stream_.push_back(idx);
    }
    oracle_.assign(sampled_positions_.size(), std::nullopt);
    answers_.resize(sampled_positions_.size());
    std::fprintf(stderr,
                 "planner_zipf: %d hot points, %zu never-seen, %zu sampled "
                 "answers per pass of %" PRId64 " queries\n",
                 kHotPoints, queries_.size() - kHotPoints,
                 sampled_positions_.size(),
                 static_cast<std::int64_t>(pass_queries_));
  }

  /// One pass is a fresh planner session (clear()) answering the stream.
  i64 pass(std::vector<double>& latency_us, FailureLog& fails) override {
    (void)fails;
    planner::GridPlanner::instance().clear();
    return answer_stream(latency_us);
  }

  void check_pass(FailureLog& fails) override {
    for (std::size_t i = 0; i < sampled_positions_.size(); ++i) {
      const std::uint32_t e =
          stream_[static_cast<std::size_t>(sampled_positions_[i])];
      const planner::PlanRequest& q = queries_[e & kIndexMask];
      if (!oracle_[i].has_value()) oracle_[i] = planner::plan_uncached(q);
      if (!(answers_[i] == *oracle_[i])) {
        fails.record("plan(" + std::to_string(q.shape.n1) + "," +
                     std::to_string(q.shape.n2) + "," +
                     std::to_string(q.shape.n3) + "; P=" +
                     std::to_string(q.P) + ") != plan_uncached");
      }
    }
  }

  /// Zipf-weighted Σ eq.-3 cost ÷ Σ Theorem 3 bound over the hot points.
  double words_over_bound() override {
    double cost = 0, bound = 0;
    for (int i = 0; i < kHotPoints; ++i) {
      const double w = 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
      const planner::PlanResult r = planner::GridPlanner::instance().plan(
          queries_[static_cast<std::size_t>(i)]);
      cost += w * r.cost_words;
      bound += w * r.bound_words;
    }
    return cost / bound;
  }

  TraceResult trace_run(Tracer& tracer, double seconds, bool quick,
                        FailureLog& fails) override {
    std::vector<double> untraced_ns, traced_ns, spans_sum_ns, plan_ns;
    std::vector<double> latency_us;
    std::uint64_t hits = 0, misses = 0;
    TraceResult result;
    const i64 t_end = now_ns() + static_cast<i64>(seconds * 0.8e9);
    do {
      i64 t0 = now_ns();
      result.ops += pass(latency_us, fails);
      untraced_ns.push_back(static_cast<double>(now_ns() - t0));
      check_pass(fails);

      const int root = tracer.begin("op");
      {
        SpanScope span(tracer, "planner.clear");
        planner::GridPlanner::instance().clear();
      }
      const planner::PlannerStats before =
          planner::GridPlanner::instance().stats();
      {
        SpanScope span(tracer, "planner.plan");
        t0 = now_ns();
        result.ops += answer_stream(latency_us);
        plan_ns.push_back(static_cast<double>(now_ns() - t0));
      }
      tracer.end();
      const planner::PlannerStats after =
          planner::GridPlanner::instance().stats();
      hits += after.point.hits - before.point.hits;
      misses += after.point.misses - before.point.misses;
      traced_ns.push_back(static_cast<double>(tracer.duration_ns(root)));
      double sum = 0;
      for (const auto& [name, ns] : tracer.children_ns(root)) sum += ns;
      spans_sum_ns.push_back(sum);
      latency_us.clear();
      check_pass(fails);
    } while (!quick && (now_ns() < t_end || untraced_ns.size() < 3));
    std::map<std::string, double>& v = result.values;
    const double op_ns = median(untraced_ns);
    v["planner.plan_us"] =
        median(plan_ns) / static_cast<double>(pass_queries_) / 1e3;
    v["planner.hit_frac"] =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
    v["trace.overhead_frac"] = (median(traced_ns) - op_ns) / op_ns;
    v["trace.unattributed_frac"] = (op_ns - median(spans_sum_ns)) / op_ns;
    return result;
  }

 private:
  static constexpr int kHotPoints = 4096;
  static constexpr double kZipfS = 1.1;
  static constexpr double kColdShare = 0.01;
  static constexpr double kSampleShare = 0.01;
  static constexpr i64 kBlock = 4;
  static constexpr i64 kTimedStride = 64;
  static constexpr std::uint32_t kSampleBit = 0x80000000u;
  static constexpr std::uint32_t kIndexMask = 0x7fffffffu;

  /// The pass's queries against the current planner state.  Every
  /// kTimedStride-th block of kBlock queries is timed; its per-query mean
  /// is one latency sample.
  i64 answer_stream(std::vector<double>& latency_us) {
    planner::GridPlanner& planner = planner::GridPlanner::instance();
    std::size_t k = 0;
    for (i64 b = 0; b < pass_queries_; b += kBlock) {
      const bool timed = (b / kBlock) % kTimedStride == 0;
      const i64 t0 = timed ? now_ns() : 0;
      for (i64 j = b; j < b + kBlock; ++j) {
        const std::uint32_t e = stream_[static_cast<std::size_t>(j)];
        const planner::PlanResult r = planner.plan(queries_[e & kIndexMask]);
        if (e & kSampleBit) answers_[k++] = r;
      }
      if (timed) {
        latency_us.push_back(static_cast<double>(now_ns() - t0) / 1e3 /
                             static_cast<double>(kBlock));
      }
    }
    return pass_queries_;
  }

  i64 pass_queries_;
  std::vector<planner::PlanRequest> queries_;  ///< hot points, then cold ones
  std::vector<std::uint32_t> stream_;  ///< index into queries_ | kSampleBit
  std::vector<i64> sampled_positions_;
  std::vector<std::optional<planner::PlanResult>> oracle_;
  std::vector<planner::PlanResult> answers_;
};

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

const char* const kWorkloads[] = {"compute_bound", "latency_bound",
                                  "registry_sweep", "resilient",
                                  "planner_zipf"};

/// Every per-layer metric, in report order; a workload that does not
/// exercise a layer reports 0 for it.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"planner.plan_us", "us"},
    {"planner.hit_frac", "ratio"},
    {"machine.setup_us", "us"},
    {"machine.sched_us", "us"},
    {"machine.sched_share", "ratio"},
    {"machine.msgs_per_op", "count"},
    {"machine.ns_per_msg", "ns"},
    {"machine.transport_ns_per_msg", "ns"},
    {"machine.retransmits_per_op", "count"},
    {"machine.acks_per_op", "count"},
    {"collectives.comm_us", "us"},
    {"collectives.words_per_op", "words"},
    {"collectives.rollback_rounds_per_op", "count"},
    {"collectives.ckpt_words_per_op", "words"},
    {"matmul.fill_cpu_us", "us"},
    {"matmul.gemm_cpu_us", "us"},
    {"matmul.gemm_gflops", "Gflop/s"},
    {"matmul.flops_per_op", "flop"},
    {"matmul.verify_us", "us"},
    {"matmul.serial_gemm_s", "s"},
    {"matmul.parallel_eff", "ratio"},
    {"model.sim_time_per_op", "alpha-beta"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

/// Set-up time of one fresh process: runs this program again with
/// --setup-probe and waits for it.  Returns a negative value on failure.
double spawn_setup_probe(const std::string& workload, std::uint64_t seed) {
  int out[2];
  if (pipe(out) != 0) return -1;
  const std::string seed_arg = std::to_string(seed);
  const char* argv[] = {"bench_e2e",     "--workload", workload.c_str(),
                        "--seed",        seed_arg.c_str(),
                        "--setup-probe", nullptr};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  std::string text;
  char buf[256];
  for (ssize_t n; rc == 0 && (n = read(out[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(out[0]);
  if (rc != 0) return -1;
  int status = 0;
  waitpid(pid, &status, 0);
  double setup_s = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      std::sscanf(text.c_str(), "{\"setup_s\": %lf", &setup_s) != 1) {
    return -1;
  }
  return setup_s;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--timeline PATH] [--quick] [--setup-probe]\n"
               "workloads:");
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  g_origin_ns = now_ns();
  std::string workload, timeline;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false, quick = false, setup_probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) != "0";
    } else if (arg == "--timeline" && has_value) {
      timeline = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--setup-probe") {
      setup_probe = true;
    } else {
      return usage();
    }
  }
  int track = -1;
  for (int i = 0; i < static_cast<int>(std::size(kWorkloads)); ++i) {
    if (workload == kWorkloads[i]) track = i;
  }
  if (track < 0 || !(seconds > 0)) return usage();

  std::unique_ptr<Workload> w;
  if (workload == "planner_zipf") {
    w = std::make_unique<PlannerZipf>(quick);
  } else {
    w = std::make_unique<RunMix>(workload);
  }
  FailureLog fails;
  std::vector<double> latency_us;

  // Set-up: process entry to the end of the first cold pass, minus the
  // bench's own input generation.  setup_s is the median over this process
  // and kSetupProbes fresh ones spread over the measured loop, so a burst of
  // outside load a few seconds long moves a probe or two, not the median.
  const i64 gen0 = now_ns();
  w->generate(seed);
  const i64 gen_ns = now_ns() - gen0;
  w->pass(latency_us, fails);
  const double setup_s =
      static_cast<double>(now_ns() - g_origin_ns - gen_ns) / 1e9;
  w->check_pass(fails);
  if (setup_probe) {
    std::printf("{\"setup_s\": %.17g, \"failed\": %" PRId64 "}\n", setup_s,
                static_cast<std::int64_t>(fails.count()));
    return fails.count() == 0 ? 0 : 1;
  }

  std::vector<Metric> metrics;
  i64 attempted = 0;
  if (trace) {
    Tracer tracer;
    const TraceResult traced = w->trace_run(tracer, seconds, quick, fails);
    attempted = traced.ops;
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = traced.values.find(name);
      metrics.push_back(
          {name, unit, it == traced.values.end() ? 0.0 : it->second});
      std::fprintf(stderr, "  %-36s %14.6g %s\n", name, metrics.back().value,
                   unit);
    }
    if (!timeline.empty() &&
        !write_timeline(timeline, workload, track, tracer.spans())) {
      std::fprintf(stderr, "cannot write %s\n", timeline.c_str());
      return 1;
    }
  } else {
    constexpr int kSetupProbes = 6;
    std::vector<double> setups = {setup_s};
    double probe_ns = 0;
    // The closed loop: whole passes until the time is up (one in --quick),
    // and at least kMinOps ops so p90 has ten samples beyond it.  Latency
    // quantiles and throughput are taken per window of whole passes holding
    // at least kWindowSamples samples, and the median over windows is
    // reported: a burst of outside load slows some windows, not the median.
    // A run with fewer samples is one window; a last partial window is
    // dropped.
    constexpr i64 kMinOps = 100;
    constexpr std::size_t kWindowSamples = 1000;
    std::vector<double> p50s, p90s, rates;
    i64 window_ops = 0, samples = 0;
    double window_ns = 0;
    const auto close_window = [&] {
      p50s.push_back(quantile(latency_us, 0.5));
      p90s.push_back(quantile(latency_us, 0.9));
      rates.push_back(static_cast<double>(window_ops) / (window_ns / 1e9));
      samples += static_cast<i64>(latency_us.size());
      latency_us.clear();
      window_ops = 0;
      window_ns = 0;
    };
    latency_us.clear();
    const i64 t_start = now_ns();
    const auto elapsed_s = [&] {
      return (static_cast<double>(now_ns() - t_start) - probe_ns) / 1e9;
    };
    do {
      const i64 t0 = now_ns();
      const i64 ops = w->pass(latency_us, fails);
      window_ns += static_cast<double>(now_ns() - t0);
      window_ops += ops;
      attempted += ops;
      w->check_pass(fails);
      if (latency_us.size() >= kWindowSamples) close_window();
      const int due = static_cast<int>(elapsed_s() / seconds *
                                       (kSetupProbes + 1));
      while (!quick && static_cast<int>(setups.size()) <=
                           std::min(due, kSetupProbes)) {
        const i64 p0 = now_ns();
        setups.push_back(spawn_setup_probe(workload, seed));
        probe_ns += static_cast<double>(now_ns() - p0);
        if (setups.back() < 0) fails.record("setup probe failed");
      }
    } while (!quick && (elapsed_s() < seconds || attempted < kMinOps));
    if (p50s.empty()) close_window();
    metrics = {
        {"setup_s", "s", median(setups)},
        {"ops_per_s", "1/s", median(rates)},
        {"op_p50_us", "us", median(p50s)},
        {"op_p90_us", "us", median(p90s)},
        {"words_over_bound", "ratio", w->words_over_bound()},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
    std::fprintf(stderr,
                 "%s seed=%" PRIu64 ": %" PRId64 " ops, %" PRId64
                 " latency samples in %zu windows\n",
                 workload.c_str(), seed, static_cast<std::int64_t>(attempted),
                 static_cast<std::int64_t>(samples), p50s.size());
    for (const Metric& m : metrics) {
      std::fprintf(stderr, "  %-18s %14.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }
  const i64 failed = fails.count();
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}
