// mailbox.hpp — per-processor message queue with (source, tag) matching.
//
// Sends are buffered (never block), so any schedule of matching sends and
// receives is deadlock-free; receives block until a matching message arrives.
// This mirrors the eager-protocol semantics message-passing programs rely on
// for small and medium messages, and keeps collective implementations simple.
//
// Storage layout (the flat message path): every queued message lives in
// one contiguous node array, recycled through a free list, and is threaded
// onto the FIFO list of its *source slot*.  pop_matching(src, tag) walks only
// the messages `src` currently has in flight — O(match) — instead of the
// whole queue.  Slots are sparse: one per source that actually pushed since
// the last drain, held in a flat vector and searched linearly (a rank meets
// about a dozen peers per grid3d run); once a mailbox has heard from more
// than kLinearSlots sources (a gather root, alltoall, shrink flooding) a
// hash index over the slots takes over.  Dense per-source storage would cost
// O(P) per mailbox — O(P^2) per machine — and P = 65,536 mailboxes must stay
// cheap.  No push or matched pop touches a hash table or allocates once the
// node array and slot vector have grown to the mailbox's working size.
//
// Arrival order (what pop_any and drain expose) is ascending arrival
// sequence number — implicit, no index kept — until the fault layer's legal
// reordering actually moves a message.  Only then is an explicit any-queue
// index (`order_`, lightweight (node, seq) entries) built from the
// live messages; it is maintained while the reordering is observable and
// dropped again once the mailbox empties.  Entries whose message was matched
// out are skipped lazily: a node whose sequence no longer matches its entry
// has been popped (and possibly recycled).  Because matching is FIFO per
// envelope, the earliest live entry of an envelope always corresponds to
// the earliest queued message of that envelope.
//
// Failure awareness (crash-fault support): a source rank may be marked *dead*
// (it crashed — no further message from it will ever arrive) or *deviated*
// (it abandoned the algorithm but still participates in the recovery
// protocol, i.e. in tags >= kRecoveryTagBase).  Receives targeting such a
// source deliver any message the source buffered *before* failing — those are
// real, the eager protocol already holds them — and only fail over once the
// queue holds nothing matching.  Because message presence is a fact of the
// sender's program order (it either reached that send before dying or it did
// not, deterministically under CrashPlan), the deliver-then-fail outcome is
// identical across OS schedules.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "machine/buffer_pool.hpp"
#include "machine/comm_stats.hpp"
#include "machine/fiber.hpp"
#include "util/math.hpp"

namespace camb {

/// A message in flight: the payload plus its envelope, the logical time at
/// which it left the sender (see machine.hpp's clock model), and the sender's
/// interned phase id at send time (for leak-report forensics; the name is
/// resolved through the machine's CommStats only when a report is built).
/// Payloads are pooled move-only Buffers: a message is moved into the
/// mailbox and moved out to the receiver; its words are never copied in
/// between.
struct Message {
  int src = -1;
  int tag = 0;
  double depart_time = 0.0;
  Buffer payload;
  PhaseId phase = 0;
  std::uint64_t seq = 0;  ///< arrival sequence, assigned by the mailbox
  // Reliable-transport envelope fields (machine/reliable.hpp).  The checksum
  // is metadata, not payload — it adds no words to any count.  A copy marked
  // transport_dup is an injected duplicate of an already-delivered message:
  // the receive path discards it silently, and one still parked here at run
  // end is transport debris, not a program leak.
  std::uint64_t checksum = 0;
  bool transport_dup = false;
};

/// One message left in a mailbox after a run — the leak / crash-debris
/// report entry (name the envelope, not just the count).
struct UndeliveredMessage {
  int src = -1;
  int dst = -1;
  int tag = 0;
  i64 bytes = 0;
  std::string phase;
  bool transport_dup = false;  ///< injected duplicate — benign debris

  double words() const { return static_cast<double>(bytes) / 8.0; }
};

/// How a blocking receive concluded under failure marking.
enum class RecvStatus {
  kDelivered,     ///< a matching message was returned
  kSrcDead,       ///< source crashed and nothing matching is buffered
  kSrcDeviated,   ///< source abandoned this tag range, nothing buffered
  kTimedOut,      ///< a match exists but its arrival stamp exceeds the
                  ///< deadline; the message stays queued
};

class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Deposit a message (called by the sender's thread). Never blocks.
  /// `reorder_skip` > 0 lets the message jump ahead of up to that many
  /// already-queued messages bearing a *different* (src, tag) envelope —
  /// the legal reorderings of the fault-injection layer.  Messages with the
  /// same envelope are never passed, so per-envelope FIFO order (the only
  /// order tag-matched receives can observe) is preserved.  Reordering
  /// moves index entries, never payloads.
  void push(Message msg, int reorder_skip = 0);

  /// Block until a message with envelope (src, tag) is available and return
  /// it.  Matching is exact on both fields; use wildcards via recv_any.
  Message pop_matching(int src, int tag);

  /// Failure-aware, deadline-aware variant: blocks until a matching message
  /// arrives OR the source can no longer produce one (dead for any tag;
  /// deviated for tags below the recovery base).  Buffered matches always
  /// win over failure marking.  A match whose arrival stamp exceeds
  /// `max_stamp` yields kTimedOut and is left queued (the logical-clock
  /// receive timeout: the message is still "in flight" at the deadline).
  RecvStatus pop_matching_or_failed(int src, int tag, double max_stamp,
                                    Message* out);

  /// Block until any message is available and return the oldest one (in
  /// arrival order, as perturbed by legal reorderings).
  Message pop_any();

  /// Mark `src` as crashed: receives from it fail over once drained.
  void mark_dead(int src);

  /// Mark `src` as having abandoned the algorithm: receives of tags below
  /// `tag_base` fail over once drained; recovery tags still block normally.
  void mark_deviated(int src, int tag_base);

  /// Number of queued messages (for tests / leak detection).
  std::size_t pending() const;

  /// Number of per-source slots materialized (for tests: the sparse
  /// footprint contract — only sources that actually pushed since the last
  /// drain have slots; receives polling a silent source must not create
  /// one).
  std::size_t bucket_count() const;

  /// Remove and return every queued message (oldest first), for tests.
  std::vector<Message> drain();

  /// Single-lock leak/debris sweep: append one envelope record per queued
  /// message (oldest first) to `out` and clear the mailbox.  This is the
  /// call Network::undelivered makes so the post-run leak report takes one
  /// lock per mailbox instead of a pending()+drain() pair per call site.
  /// Phase ids are resolved to names through `names` (left empty without).
  void drain_undelivered(int dst, std::vector<UndeliveredMessage>& out,
                         const CommStats* names = nullptr);

  /// Sources above which slot lookup switches from a linear scan to a hash
  /// index.
  static constexpr std::size_t kLinearSlots = 16;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// One queued message, linked into its source slot's FIFO.  A free node
  /// has seq 0 and links the free list instead.
  struct Node {
    Message msg;
    std::uint32_t next = kNil;
  };

  /// The FIFO of messages from one source (head = oldest).
  struct Slot {
    int src = -1;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// One any-queue index entry: the node holding the message and its
  /// arrival sequence (a mismatch means the entry is stale; a live entry's
  /// envelope is its node's).
  struct Entry {
    std::uint32_t node = kNil;
    std::uint64_t seq = 0;
  };

  /// The slot for `src`, or nullptr if that source has never pushed here
  /// since the last drain.  All pop paths use this so a blocked receive does
  /// not create a slot.
  Slot* find_slot(int src);

  /// The slot for `src`, created on demand — called by push() only, so
  /// slots exist exactly for the sources that have actually sent here.
  Slot& slot_for_push(int src);

  /// The first node of `slot` carrying `tag` (kNil if none); `*prev`
  /// receives its predecessor in the slot list.
  std::uint32_t find_tag(const Slot& slot, int tag, std::uint32_t* prev) const;

  /// Unlink node `i` (predecessor `prev`) from `slot`, free it, and return
  /// its message.  Drops the any-queue index once the mailbox is empty.
  Message take(Slot& slot, std::uint32_t i, std::uint32_t prev);

  /// Unlink the node an index entry or a slot head stands for, wherever it
  /// sits in its slot.
  Message take_node(std::uint32_t i);

  /// Block until this mailbox is notified again: parks when called on a
  /// fiber, waits on the condition variable otherwise.  Callers loop.
  void wait_for_mail(std::unique_lock<std::mutex>& lock);

  /// Apply a legal reordering to the just-pushed node `i`, building the
  /// any-queue index first if the move is observable.
  void reorder(std::uint32_t i, int reorder_skip);

  /// Materialize the any-queue index from the live messages in arrival
  /// order.
  void build_index();

  bool live(const Entry& e) const { return nodes_[e.node].msg.seq == e.seq; }

  /// Drop index-front entries whose messages were already matched out, and
  /// rebuild the index without stale entries once they outnumber the live
  /// ones (amortized O(1) per pop; bounds the index at ~2x pending).
  void trim_index();

  /// Every queued node in arrival order (index order when one is kept).
  std::vector<std::uint32_t> arrival_order() const;

  /// Forget every message, slot and index entry (keeps capacity).
  void clear_all();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  FiberWaitList waiters_;
  std::vector<Node> nodes_;        ///< message storage, recycled
  std::uint32_t free_ = kNil;      ///< free-node list head
  std::vector<Slot> slots_;        ///< one per source that pushed
  std::unordered_map<int, std::uint32_t> slot_index_;  ///< src -> slot, only
                                                       ///< past kLinearSlots
  std::vector<Entry> order_;       ///< any-queue index, only when indexed_
  std::size_t order_head_ = 0;     ///< first unconsumed order_ entry
  bool indexed_ = false;
  std::uint64_t next_seq_ = 1;
  std::size_t size_ = 0;
  std::vector<int> dead_;
  std::vector<std::pair<int, int>> deviated_;  ///< (src, tag_base)
};

}  // namespace camb
