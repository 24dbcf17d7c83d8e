// Model-based test of the flat-slot Mailbox against an oracle: a test-local
// copy of the hash-bucket mailbox it replaced (per-source buckets in an
// unordered_map, a deque any-queue index with a stale-sequence set).  Seeded
// random interleavings of pushes — with legal reorderings, repeated
// envelopes, and more sources than the linear-scan threshold — and of every
// pop path must yield the same messages in the same order, the same receive
// outcomes, and the same slot footprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "machine/comm_stats.hpp"
#include "machine/mailbox.hpp"
#include "util/rng.hpp"

namespace camb {
namespace {

/// The oracle: the previous Mailbox's storage and ordering logic, minus
/// blocking (a receive that would wait returns nullopt instead).
class OracleMailbox {
 public:
  void push(Message msg, int reorder_skip) {
    msg.seq = next_seq_++;
    order_.push_back(Entry{msg.src, msg.tag, msg.seq});
    buckets_[msg.src].push_back(std::move(msg));
    ++size_;
    auto pos = std::prev(order_.end());
    while (reorder_skip > 0 && pos != order_.begin()) {
      auto prev = std::prev(pos);
      if (stale_.count(prev->seq) != 0) {
        std::iter_swap(prev, pos);
        pos = prev;
        continue;
      }
      if (prev->src == pos->src && prev->tag == pos->tag) break;
      std::iter_swap(prev, pos);
      pos = prev;
      --reorder_skip;
    }
  }

  /// pop_matching_or_failed; nullopt where the real one would block.
  std::optional<RecvStatus> try_pop_matching_or_failed(int src, int tag,
                                                       double max_stamp,
                                                       Message* out) {
    if (std::vector<Message>* q = find_bucket(src)) {
      auto it = std::find_if(q->begin(), q->end(),
                             [tag](const Message& m) { return m.tag == tag; });
      if (it != q->end()) {
        if (it->depart_time > max_stamp) return RecvStatus::kTimedOut;
        *out = take_at(*q, it, /*indexed=*/true);
        trim_order_front();
        return RecvStatus::kDelivered;
      }
    }
    if (std::find(dead_.begin(), dead_.end(), src) != dead_.end()) {
      return RecvStatus::kSrcDead;
    }
    for (const auto& [r, base] : deviated_) {
      if (r == src && tag < base) return RecvStatus::kSrcDeviated;
    }
    return std::nullopt;
  }

  bool has_match(int src, int tag) {
    std::vector<Message>* q = find_bucket(src);
    return q != nullptr &&
           std::any_of(q->begin(), q->end(),
                       [tag](const Message& m) { return m.tag == tag; });
  }

  Message pop_any() {
    trim_order_front();
    const Entry e = order_.front();
    order_.pop_front();
    return take_oldest(e.src, e.tag, /*indexed=*/false);
  }

  void mark_dead(int src) {
    if (std::find(dead_.begin(), dead_.end(), src) == dead_.end()) {
      dead_.push_back(src);
    }
  }
  void mark_deviated(int src, int tag_base) {
    deviated_.emplace_back(src, tag_base);
  }

  std::size_t pending() const { return size_; }
  std::size_t bucket_count() const { return buckets_.size(); }

  std::vector<Message> drain() {
    std::vector<Message> out;
    while (!order_.empty()) {
      const Entry e = order_.front();
      order_.pop_front();
      auto it = stale_.find(e.seq);
      if (it != stale_.end()) {
        stale_.erase(it);
        continue;
      }
      out.push_back(take_oldest(e.src, e.tag, /*indexed=*/false));
    }
    buckets_.clear();
    stale_.clear();
    size_ = 0;
    return out;
  }

 private:
  struct Entry {
    int src = -1;
    int tag = 0;
    std::uint64_t seq = 0;
  };

  std::vector<Message>* find_bucket(int src) {
    auto it = buckets_.find(src);
    return it == buckets_.end() ? nullptr : &it->second;
  }

  void trim_order_front() {
    while (!stale_.empty() && !order_.empty()) {
      auto it = stale_.find(order_.front().seq);
      if (it == stale_.end()) break;
      stale_.erase(it);
      order_.pop_front();
    }
  }

  Message take_oldest(int src, int tag, bool indexed) {
    std::vector<Message>* q = find_bucket(src);
    auto it = std::find_if(q->begin(), q->end(),
                           [tag](const Message& m) { return m.tag == tag; });
    return take_at(*q, it, indexed);
  }

  Message take_at(std::vector<Message>& q, std::vector<Message>::iterator it,
                  bool indexed) {
    Message out = std::move(*it);
    q.erase(it);
    if (indexed) {
      if (!order_.empty() && order_.front().seq == out.seq) {
        order_.pop_front();
      } else {
        stale_.insert(out.seq);
        compact_if_sparse();
      }
    }
    --size_;
    return out;
  }

  void compact_if_sparse() {
    if (stale_.size() <= 64 || stale_.size() <= size_) return;
    std::deque<Entry> live;
    for (const Entry& e : order_) {
      if (stale_.count(e.seq) == 0) live.push_back(e);
    }
    order_.swap(live);
    stale_.clear();
  }

  std::unordered_map<int, std::vector<Message>> buckets_;
  std::deque<Entry> order_;
  std::unordered_set<std::uint64_t> stale_;
  std::uint64_t next_seq_ = 1;
  std::size_t size_ = 0;
  std::vector<int> dead_;
  std::vector<std::pair<int, int>> deviated_;
};

/// Everything a receiver can observe of a message.
void expect_same(const Message& want, const Message& got,
                 const std::string& where) {
  EXPECT_EQ(want.src, got.src) << where;
  EXPECT_EQ(want.tag, got.tag) << where;
  EXPECT_EQ(want.seq, got.seq) << where;
  EXPECT_EQ(want.phase, got.phase) << where;
  EXPECT_EQ(want.depart_time, got.depart_time) << where;
  EXPECT_EQ(want.checksum, got.checksum) << where;
  EXPECT_EQ(want.transport_dup, got.transport_dup) << where;
  EXPECT_EQ(want.payload.byte_size(), got.payload.byte_size()) << where;
  if (want.payload.size() == 1 && got.payload.size() == 1) {
    EXPECT_EQ(want.payload[0], got.payload[0]) << where;
  }
}

/// Shape of one random interleaving.
struct Scenario {
  std::uint64_t seed;
  int sources;  ///< distinct senders (some seeds exceed kLinearSlots)
  int tags;     ///< distinct tags per sender (few => repeated envelopes)
  int steps;
};

void run_against_oracle(const Scenario& sc) {
  Rng rng(sc.seed, 0);
  Mailbox box;
  OracleMailbox oracle;
  int next_value = 0;
  const auto draw = [&rng](int n) {
    return static_cast<int>(rng.uniform() * n) % n;
  };
  for (int step = 0; step < sc.steps; ++step) {
    const std::string where = "seed " + std::to_string(sc.seed) + " step " +
                              std::to_string(step);
    const double op = rng.uniform();
    if (op < 0.50) {
      // Push: same message into both, half of them with a legal reordering.
      const int src = draw(sc.sources);
      const int tag = draw(sc.tags);
      const double depart = static_cast<double>(draw(8));
      const PhaseId phase = static_cast<PhaseId>(draw(4));
      const bool dup = rng.uniform() < 0.1;
      const std::uint64_t checksum = static_cast<std::uint64_t>(draw(1000));
      const int skip = rng.uniform() < 0.5 ? draw(9) : 0;
      const double value = static_cast<double>(next_value++);
      for (int copy = 0; copy < 2; ++copy) {
        Message m{src, tag, depart, {value}, phase};
        m.checksum = checksum;
        m.transport_dup = dup;
        if (copy == 0) {
          box.push(std::move(m), skip);
        } else {
          oracle.push(std::move(m), skip);
        }
      }
    } else if (op < 0.80) {
      // Tag-matched receive, sometimes under a deadline, sometimes polling a
      // source that never sent.  Only receives the oracle says would not
      // block are issued.
      const int src = draw(sc.sources + 2);
      const int tag = draw(sc.tags);
      const double deadline = rng.uniform() < 0.3
                                  ? static_cast<double>(draw(8))
                                  : std::numeric_limits<double>::infinity();
      Message want;
      const std::optional<RecvStatus> expected =
          oracle.try_pop_matching_or_failed(src, tag, deadline, &want);
      if (!expected) continue;
      Message got;
      const RecvStatus status =
          box.pop_matching_or_failed(src, tag, deadline, &got);
      ASSERT_EQ(status, *expected) << where;
      if (status == RecvStatus::kDelivered) expect_same(want, got, where);
    } else if (op < 0.85) {
      // The plain blocking receive.
      const int src = draw(sc.sources);
      const int tag = draw(sc.tags);
      if (!oracle.has_match(src, tag)) continue;
      Message want;
      (void)oracle.try_pop_matching_or_failed(
          src, tag, std::numeric_limits<double>::infinity(), &want);
      expect_same(want, box.pop_matching(src, tag), where);
    } else if (op < 0.95) {
      if (oracle.pending() == 0) continue;
      expect_same(oracle.pop_any(), box.pop_any(), where);
    } else if (op < 0.97) {
      // Failure marking: receives from these sources now fail over once
      // nothing matching is buffered.
      const int src = draw(sc.sources + 2);
      if (rng.uniform() < 0.5) {
        box.mark_dead(src);
        oracle.mark_dead(src);
      } else {
        box.mark_deviated(src, 1);
        oracle.mark_deviated(src, 1);
      }
    } else if (op < 0.985) {
      const std::vector<Message> want = oracle.drain();
      const std::vector<Message> got = box.drain();
      ASSERT_EQ(want.size(), got.size()) << where;
      for (std::size_t k = 0; k < want.size(); ++k) {
        expect_same(want[k], got[k], where + " drain #" + std::to_string(k));
      }
    } else {
      const std::vector<Message> want = oracle.drain();
      std::vector<UndeliveredMessage> got;
      box.drain_undelivered(7, got);
      ASSERT_EQ(want.size(), got.size()) << where;
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(want[k].src, got[k].src) << where;
        EXPECT_EQ(got[k].dst, 7) << where;
        EXPECT_EQ(want[k].tag, got[k].tag) << where;
        EXPECT_EQ(want[k].payload.byte_size(), got[k].bytes) << where;
        EXPECT_EQ(want[k].transport_dup, got[k].transport_dup) << where;
      }
    }
    ASSERT_EQ(box.pending(), oracle.pending()) << where;
    ASSERT_EQ(box.bucket_count(), oracle.bucket_count()) << where;
  }
  // Whatever is left comes out in the same order.
  const std::vector<Message> want = oracle.drain();
  const std::vector<Message> got = box.drain();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    expect_same(want[k], got[k], "final drain #" + std::to_string(k));
  }
  EXPECT_EQ(box.bucket_count(), 0u);
}

TEST(MailboxOracle, FewSourcesRepeatedEnvelopes) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    run_against_oracle({seed, 3, 2, 3000});
  }
}

TEST(MailboxOracle, ManyTagsPerSource) {
  for (std::uint64_t seed = 101; seed <= 116; ++seed) {
    run_against_oracle({seed, 6, 7, 3000});
  }
}

TEST(MailboxOracle, MoreSourcesThanTheLinearScan) {
  const int sources = static_cast<int>(Mailbox::kLinearSlots) * 3;
  for (std::uint64_t seed = 201; seed <= 216; ++seed) {
    run_against_oracle({seed, sources, 2, 4000});
  }
}

TEST(MailboxOracle, DeepBacklogUnderReordering) {
  // Push-heavy prefix: hundreds of messages queued at once, so the reorder
  // index grows, goes stale and compacts before the pops catch up.
  for (std::uint64_t seed = 301; seed <= 308; ++seed) {
    Rng rng(seed, 1);
    Mailbox box;
    OracleMailbox oracle;
    for (int k = 0; k < 600; ++k) {
      const int src = static_cast<int>(rng.uniform() * 24);
      const int tag = static_cast<int>(rng.uniform() * 3);
      const int skip = static_cast<int>(rng.uniform() * 9);
      box.push(Message{src, tag, 0.0, {static_cast<double>(k)}}, skip);
      oracle.push(Message{src, tag, 0.0, {static_cast<double>(k)}}, skip);
    }
    // Matched pops from the back half of the sources leave stale entries
    // behind long-lived live ones; pop_any then walks past them.
    for (int src = 12; src < 24; ++src) {
      for (int tag = 0; tag < 3; ++tag) {
        while (oracle.has_match(src, tag)) {
          Message want;
          (void)oracle.try_pop_matching_or_failed(
              src, tag, std::numeric_limits<double>::infinity(), &want);
          expect_same(want, box.pop_matching(src, tag), "backlog");
        }
      }
    }
    while (oracle.pending() > 0) {
      expect_same(oracle.pop_any(), box.pop_any(), "backlog pop_any");
    }
    EXPECT_EQ(box.pending(), 0u);
    EXPECT_EQ(box.bucket_count(), oracle.bucket_count());
  }
}

TEST(MailboxOracle, LeakReportResolvesPhaseNames) {
  CommStats stats(2);
  const PhaseId exchange = stats.intern("exchange");
  Mailbox box;
  box.push(Message{1, 4, 0.0, {1.0}, exchange});
  box.push(Message{0, 2, 0.0, {2.0}});
  std::vector<UndeliveredMessage> out;
  box.drain_undelivered(3, out, &stats);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].phase, "exchange");
  EXPECT_EQ(out[1].phase, "default");
  EXPECT_EQ(box.bucket_count(), 0u);
}

}  // namespace
}  // namespace camb
