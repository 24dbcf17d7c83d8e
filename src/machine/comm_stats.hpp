// comm_stats.hpp — exact communication accounting for the simulated machine.
//
// The paper's claims are statements about *words of data communicated per
// processor along the critical path* in the α-β-γ model (§3.1).  Every send
// through the network is recorded here, per rank and per named phase, so that
// the benchmark harness can compare measured communication of an executed
// algorithm against the analytic lower bound word-for-word.
//
// Conventions:
//  * one "word" = one element of the payload (double);
//  * per-rank counters are only ever written by that rank's thread, so they
//    are plain (cache-line padded) fields, not atomics;
//  * the bandwidth cost of an algorithm in the α-β model is reported as the
//    maximum over ranks of received words (for the symmetric, bidirectional-
//    exchange collectives used here, sent == received per rank, matching the
//    (1 - 1/p)w accounting of §5.1).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/math.hpp"

namespace camb {

/// Counters for one rank within one phase.
///
/// Since the scalar-substrate refactor the canonical stored unit is *bytes*:
/// every payload size is an exact integer of bytes regardless of element
/// width, so the counters never round.  Words (the paper's unit, normalized
/// to 8 bytes) are exposed as derived accessors returning double — exact for
/// every supported dtype because all byte totals are multiples of 4, and
/// halves are exactly representable.  For pure-f64 runs words_sent() etc.
/// are integer-valued and bit-compare equal to the pre-refactor counts.
struct PhaseCounters {
  i64 bytes_sent = 0;
  i64 bytes_received = 0;
  i64 messages_sent = 0;
  i64 messages_received = 0;

  double words_sent() const { return static_cast<double>(bytes_sent) / 8.0; }
  double words_received() const {
    return static_cast<double>(bytes_received) / 8.0;
  }

  PhaseCounters& operator+=(const PhaseCounters& other) {
    bytes_sent += other.bytes_sent;
    bytes_received += other.bytes_received;
    messages_sent += other.messages_sent;
    messages_received += other.messages_received;
    return *this;
  }
};

/// α-β cost of a set of counters: latency α per message plus bandwidth β per
/// word, using the max(sent, received) convention for bidirectional links.
struct AlphaBeta {
  double alpha = 1.0;  ///< per-message latency cost
  double beta = 1.0;   ///< per-word bandwidth cost

  double cost(const PhaseCounters& c) const {
    const double msgs =
        static_cast<double>(std::max(c.messages_sent, c.messages_received));
    const double words = std::max(c.words_sent(), c.words_received());
    return alpha * msgs + beta * words;
  }
};

/// Reliable-transport event counters for one rank (machine/reliable.hpp).
/// These are *event* counts, not word counts — the word tax of retransmits
/// already lands in the "transport" phase counters — so recovery summaries
/// can print them without re-deriving from the trace.  Sender-side fields
/// (retransmits, retransmitted_words, dup_copies) are written by the
/// sending rank's thread; receiver-side fields (corrupt_discards,
/// dup_discards, nacks, acks) by the receiving rank's; corrections by the
/// runner after the machine stops — the same single-writer discipline as
/// the phase counters.
struct TransportCounters {
  i64 retransmits = 0;         ///< extra on-wire copies (dropped + corrupt)
  i64 retransmitted_bytes = 0; ///< bytes those extra copies carried
  i64 dup_copies = 0;          ///< injected duplicates put on the wire
  i64 corrupt_discards = 0;    ///< copies this rank rejected on checksum
  i64 dup_discards = 0;        ///< duplicates this rank discarded silently
  i64 nacks = 0;               ///< zero-word rejections this rank sent back
  i64 acks = 0;                ///< clean deliveries this rank acknowledged
  i64 corrections = 0;         ///< ABFT single-error corrections applied

  TransportCounters& operator+=(const TransportCounters& other) {
    retransmits += other.retransmits;
    retransmitted_bytes += other.retransmitted_bytes;
    dup_copies += other.dup_copies;
    corrupt_discards += other.corrupt_discards;
    dup_discards += other.dup_discards;
    nacks += other.nacks;
    acks += other.acks;
    corrections += other.corrections;
    return *this;
  }
};

/// Interned phase label: an index into one CommStats's phase-name table.
/// Messages and per-rank counters carry these small ids; names are looked up
/// only when a report, a trace or a leak report is built.  Id 0 is
/// "default", the phase every rank starts in.
using PhaseId = std::uint32_t;
/// The id lookups return for a name that was never interned.
inline constexpr PhaseId kNoPhase = ~PhaseId{0};

/// Per-rank, per-phase communication statistics for one machine run.
///
/// Phase names are interned into a per-instance, append-only table whose
/// entries never move: a name already seen is found by a lock-free scan, so
/// set_phase takes no machine-wide lock and allocates nothing after a name's
/// first sight (the first sight appends under `phase_mutex_`).  Each rank
/// keeps a flat counter array indexed by id plus a running total, so
/// recording a message is two array updates with no lookup at all.
class CommStats {
 public:
  explicit CommStats(int nprocs);
  ~CommStats();
  CommStats(const CommStats&) = delete;
  CommStats& operator=(const CommStats&) = delete;

  int nprocs() const { return nprocs_; }

  /// Set the active phase label for a rank (e.g. "allgather_A").  Subsequent
  /// traffic by that rank is attributed to this phase, and the name joins
  /// phases().  Called by the rank's own thread only.
  void set_phase(int rank, std::string_view phase);
  const std::string& phase(int rank) const;

  /// The interned id of `name`, interning it if new.  Interning alone does
  /// not list the name in phases(); only set_phase / set_phase_id do.
  PhaseId intern(std::string_view name);
  /// The id of `name` without interning it (kNoPhase if never seen).
  /// Lock-free.
  PhaseId find_phase(std::string_view name) const;
  /// The name an id stands for (ids come from intern / phase_id only).
  const std::string& phase_name(PhaseId id) const;
  /// The id of `rank`'s active phase — what a message sent now carries.
  PhaseId phase_id(int rank) const { return slots_[rank].active; }
  /// set_phase by id: the hot-path form of a save/set/restore around a
  /// dedicated phase (transport, heartbeat).
  void set_phase_id(int rank, PhaseId id);

  /// Record a message. Called from the sender's thread; the receive half is
  /// attributed to the receiver's currently active phase at receive time via
  /// record_receive (mailbox bookkeeping keeps both ends exact).
  void record_send(int src, i64 bytes) {
    PhaseCounters& c = counters(src);
    c.bytes_sent += bytes;
    c.messages_sent += 1;
    RankSlot& slot = slots_[src];
    slot.total.bytes_sent += bytes;
    slot.total.messages_sent += 1;
  }
  void record_receive(int dst, i64 bytes) {
    PhaseCounters& c = counters(dst);
    c.bytes_received += bytes;
    c.messages_received += 1;
    RankSlot& slot = slots_[dst];
    slot.total.bytes_received += bytes;
    slot.total.messages_received += 1;
  }

  /// Totals across all phases for one rank.
  const PhaseCounters& rank_total(int rank) const;

  /// Counters for one rank in one phase (zero if the phase never ran).
  PhaseCounters rank_phase(int rank, std::string_view phase) const;
  /// The same by id — for report loops over every rank, which look the
  /// name up once (kNoPhase reads as zero).
  PhaseCounters rank_phase(int rank, PhaseId id) const;

  /// Max over ranks of received words — the bandwidth-cost word count used to
  /// compare against the lower bounds.  Exact (integer or half-integer) for
  /// every supported dtype.
  double critical_path_received_words() const;

  /// Max over ranks of sent words.
  double critical_path_sent_words() const;

  /// Max over ranks of α-β cost of the rank's total counters.
  double critical_path_cost(const AlphaBeta& machine) const;

  /// Sum over ranks of words sent (total traffic volume on the network).
  double total_words_sent() const;

  /// Max over ranks of received words within a single named phase.
  double phase_critical_path_received_words(std::string_view phase) const;

  /// Every name ever passed to set_phase on any rank, in first-use order —
  /// including phases that recorded no traffic (e.g. "local_gemm"), which
  /// is why RunReport::phase_recv lists them with zero words.  "default"
  /// appears only if some rank set it explicitly.
  std::vector<std::string> phases() const;

  /// Reliable-transport counters for one rank.  The mutable accessor follows
  /// the single-writer rules documented on TransportCounters.
  TransportCounters& transport_mut(int rank);
  const TransportCounters& transport(int rank) const;

  /// Sum of transport counters over all ranks (after the run).
  TransportCounters transport_total() const;

  /// Reset all counters (phases keep their labels).
  void reset();

 private:
  struct alignas(64) RankSlot {
    PhaseId active = 0;
    std::vector<PhaseCounters> by_phase;  ///< indexed by PhaseId, grown lazily
    PhaseCounters total;
    TransportCounters transport;
  };

  /// One interned name.  `listed` flips once, under phase_mutex_, when the
  /// name is first passed to set_phase; readers check it without the lock.
  struct PhaseName {
    std::string name;
    std::atomic<bool> listed{false};
  };

  /// The table grows in chunks that never move: chunk c holds
  /// kFirstChunk << c names, so 28 chunks cover any id a program can make.
  static constexpr std::uint32_t kFirstChunk = 8;
  static constexpr int kMaxChunks = 28;

  PhaseCounters& counters(int rank) {
    RankSlot& slot = slots_[rank];
    if (slot.active >= slot.by_phase.size()) grow(slot);
    return slot.by_phase[slot.active];
  }
  static void grow(RankSlot& slot);

  PhaseName& entry(PhaseId id) const;
  /// First sight of a name (or first listing): appends under phase_mutex_.
  PhaseId intern_locked(std::string_view name, bool list);

  int nprocs_;
  std::vector<RankSlot> slots_;
  std::unique_ptr<PhaseName[]> chunks_[kMaxChunks];
  std::atomic<PhaseId> names_{0};  ///< published table size
  std::vector<PhaseId> phase_order_;  // guarded by phase_mutex_
  mutable std::mutex phase_mutex_;
};

}  // namespace camb
