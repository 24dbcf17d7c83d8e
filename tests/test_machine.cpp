// Unit tests for the simulated α-β-γ machine: mailboxes, network accounting,
// barriers, and SPMD execution semantics.
#include "machine/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace camb {
namespace {

TEST(Machine, RunsAllRanks) {
  Machine machine(8);
  std::atomic<int> count{0};
  machine.run([&](RankCtx& ctx) {
    (void)ctx;
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 8);
}

TEST(Machine, PointToPointDeliversPayload) {
  Machine machine(2);
  machine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 42, {1.0, 2.0, 3.0});
    } else {
      const auto msg = ctx.recv(0, 42);
      ASSERT_EQ(msg.size(), 3u);
      EXPECT_DOUBLE_EQ(msg[2], 3.0);
    }
  });
}

TEST(Machine, TagMatchingIsExact) {
  // Two messages with different tags arrive out of order; receives by tag
  // must pick the right ones regardless.
  Machine machine(2);
  machine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 7, {7.0});
      ctx.send(1, 8, {8.0});
    } else {
      const auto m8 = ctx.recv(0, 8);
      const auto m7 = ctx.recv(0, 7);
      EXPECT_DOUBLE_EQ(m8[0], 8.0);
      EXPECT_DOUBLE_EQ(m7[0], 7.0);
    }
  });
}

TEST(Machine, CountsWordsOnBothEnds) {
  Machine machine(3);
  machine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 0, std::vector<double>(10));
      ctx.send(2, 0, std::vector<double>(5));
    } else {
      (void)ctx.recv(0, 0);
    }
  });
  const CommStats& stats = machine.stats();
  EXPECT_EQ(stats.rank_total(0).words_sent(), 15);
  EXPECT_EQ(stats.rank_total(0).messages_sent, 2);
  EXPECT_EQ(stats.rank_total(1).words_received(), 10);
  EXPECT_EQ(stats.rank_total(2).words_received(), 5);
  EXPECT_EQ(stats.total_words_sent(), 15);
  EXPECT_EQ(stats.critical_path_received_words(), 10);
  EXPECT_EQ(stats.critical_path_sent_words(), 15);
}

TEST(Machine, SelfSendsAreFree) {
  Machine machine(1);
  machine.run([&](RankCtx& ctx) {
    ctx.send(0, 3, {1.0, 2.0});
    const auto msg = ctx.recv(0, 3);
    EXPECT_EQ(msg.size(), 2u);
  });
  EXPECT_EQ(machine.stats().total_words_sent(), 0);
  EXPECT_EQ(machine.stats().rank_total(0).messages_sent, 0);
}

TEST(Machine, PhaseAccounting) {
  Machine machine(2);
  machine.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.set_phase("first");
      ctx.send(1, 0, std::vector<double>(4));
      ctx.set_phase("second");
      ctx.send(1, 1, std::vector<double>(6));
    } else {
      ctx.set_phase("first");
      (void)ctx.recv(0, 0);
      ctx.set_phase("second");
      (void)ctx.recv(0, 1);
    }
  });
  const CommStats& stats = machine.stats();
  EXPECT_EQ(stats.phase_critical_path_received_words("first"), 4);
  EXPECT_EQ(stats.phase_critical_path_received_words("second"), 6);
  const auto phases = stats.phases();
  ASSERT_GE(phases.size(), 2u);
}

TEST(Machine, SendRecvExchanges) {
  Machine machine(2);
  machine.run([&](RankCtx& ctx) {
    const int peer = 1 - ctx.rank();
    const double mine = static_cast<double>(ctx.rank());
    const auto theirs = ctx.sendrecv(peer, 5, {mine});
    EXPECT_DOUBLE_EQ(theirs[0], static_cast<double>(peer));
  });
}

TEST(Machine, BarrierSynchronizes) {
  // Every rank increments before the barrier; after the barrier all ranks
  // must observe the full count.
  Machine machine(16);
  std::atomic<int> before{0};
  machine.run([&](RankCtx& ctx) {
    before.fetch_add(1);
    ctx.barrier();
    EXPECT_EQ(before.load(), 16);
  });
}

TEST(Machine, ExceptionsPropagate) {
  Machine machine(4);
  EXPECT_THROW(machine.run([&](RankCtx& ctx) {
                 if (ctx.rank() == 2) throw Error("rank 2 failed");
                 // Other ranks exit cleanly.
               }),
               Error);
}

TEST(Machine, UndeliveredMessagesDetected) {
  Machine machine(2);
  EXPECT_THROW(machine.run([&](RankCtx& ctx) {
                 if (ctx.rank() == 0) ctx.send(1, 0, {1.0});
                 // Rank 1 never receives.
               }),
               Error);
}

TEST(Machine, RankRngStreamsDiffer) {
  Machine machine(2);
  std::vector<double> first(2);
  machine.run([&](RankCtx& ctx) {
    first[static_cast<std::size_t>(ctx.rank())] = ctx.rng().uniform();
  });
  EXPECT_NE(first[0], first[1]);
}

TEST(AlphaBeta, CostFormula) {
  AlphaBeta machine{2.0, 0.5};
  PhaseCounters counters;
  counters.messages_sent = 3;
  counters.bytes_sent = 100 * 8;
  counters.messages_received = 1;
  counters.bytes_received = 40 * 8;
  // max(sent, recv) on both terms: 3 messages, 100 words.
  EXPECT_DOUBLE_EQ(machine.cost(counters), 2.0 * 3 + 0.5 * 100);
}

TEST(Machine, ManyRanksStress) {
  // 128 threads exchanging in a ring — exercises mailbox contention.
  Machine machine(128);
  machine.run([&](RankCtx& ctx) {
    const int p = ctx.nprocs();
    const int next = (ctx.rank() + 1) % p;
    const int prev = (ctx.rank() + p - 1) % p;
    ctx.send(next, 9, {static_cast<double>(ctx.rank())});
    const auto msg = ctx.recv(prev, 9);
    EXPECT_DOUBLE_EQ(msg[0], static_cast<double>(prev));
  });
  EXPECT_EQ(machine.stats().total_words_sent(), 128);
}

// ---------------------------------------------------------------------------
// Phase interning: CommStats against the std::map accounting it replaced.
// ---------------------------------------------------------------------------

/// The oracle: per rank a std::map from phase name to counters, the active
/// name per rank, and the first-use list of every name passed to set_phase.
class MapStats {
 public:
  explicit MapStats(int nprocs)
      : active_(static_cast<std::size_t>(nprocs), "default"),
        by_phase_(static_cast<std::size_t>(nprocs)) {}

  void set_phase(int rank, const std::string& phase) {
    if (std::find(order_.begin(), order_.end(), phase) == order_.end()) {
      order_.push_back(phase);
    }
    active_[rank] = phase;
  }
  const std::string& phase(int rank) const { return active_[rank]; }
  void record_send(int rank, i64 bytes) {
    PhaseCounters& c = by_phase_[rank][active_[rank]];
    c.bytes_sent += bytes;
    c.messages_sent += 1;
  }
  void record_receive(int rank, i64 bytes) {
    PhaseCounters& c = by_phase_[rank][active_[rank]];
    c.bytes_received += bytes;
    c.messages_received += 1;
  }
  PhaseCounters rank_phase(int rank, const std::string& phase) const {
    auto it = by_phase_[rank].find(phase);
    return it == by_phase_[rank].end() ? PhaseCounters{} : it->second;
  }
  PhaseCounters rank_total(int rank) const {
    PhaseCounters total;
    for (const auto& [name, c] : by_phase_[rank]) total += c;
    return total;
  }
  void reset() {
    for (auto& m : by_phase_) m.clear();
  }
  const std::vector<std::string>& phases() const { return order_; }

 private:
  std::vector<std::string> active_;
  std::vector<std::map<std::string, PhaseCounters>> by_phase_;
  std::vector<std::string> order_;
};

void expect_same_counters(const PhaseCounters& want, const PhaseCounters& got,
                          const std::string& where) {
  EXPECT_EQ(want.bytes_sent, got.bytes_sent) << where;
  EXPECT_EQ(want.bytes_received, got.bytes_received) << where;
  EXPECT_EQ(want.messages_sent, got.messages_sent) << where;
  EXPECT_EQ(want.messages_received, got.messages_received) << where;
}

TEST(PhaseInterning, MatchesMapAccountingUnderRandomTraffic) {
  constexpr int kRanks = 5;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // Literal names, one past the 15-char SSO limit, the dedicated phases,
    // and names built at run time — more of them than the first table chunk.
    std::vector<std::string> names = {"default",   "first",     "second",
                                      "reduce_scatter_C", "transport",
                                      "heartbeat", "local_gemm"};
    for (int k = 0; k < 12; ++k) names.push_back("stage" + std::to_string(k));
    CommStats stats(kRanks);
    MapStats model(kRanks);
    const PhaseId transport = stats.intern("transport");
    Rng rng(seed, 0);
    const auto draw = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform() * n) % n;
    };
    for (int step = 0; step < 4000; ++step) {
      const int r = static_cast<int>(draw(kRanks));
      const double op = rng.uniform();
      const i64 bytes = 8 * static_cast<i64>(draw(5));
      if (op < 0.2) {
        const std::string& name = names[draw(names.size())];
        stats.set_phase(r, name);
        model.set_phase(r, name);
      } else if (op < 0.3) {
        // The transport save/set/restore pattern of the network.
        const PhaseId saved = stats.phase_id(r);
        const std::string saved_name = model.phase(r);
        stats.set_phase_id(r, transport);
        model.set_phase(r, "transport");
        stats.record_send(r, bytes);
        model.record_send(r, bytes);
        stats.set_phase_id(r, saved);
        model.set_phase(r, saved_name);
      } else if (op < 0.645) {
        stats.record_send(r, bytes);
        model.record_send(r, bytes);
      } else if (op < 0.99) {
        stats.record_receive(r, bytes);
        model.record_receive(r, bytes);
      } else {
        stats.reset();
        model.reset();
      }
      ASSERT_EQ(stats.phase(r), model.phase(r));
    }
    EXPECT_EQ(stats.phases(), model.phases()) << "seed " << seed;
    names.push_back("never_set");
    for (int r = 0; r < kRanks; ++r) {
      const std::string where = "seed " + std::to_string(seed) + " rank " +
                                std::to_string(r);
      expect_same_counters(model.rank_total(r), stats.rank_total(r), where);
      for (const std::string& name : names) {
        expect_same_counters(model.rank_phase(r, name),
                             stats.rank_phase(r, name), where + " " + name);
      }
    }
    for (const std::string& name : names) {
      i64 worst = 0;
      for (int r = 0; r < kRanks; ++r) {
        worst = std::max(worst, model.rank_phase(r, name).bytes_received);
      }
      EXPECT_EQ(stats.phase_critical_path_received_words(name),
                static_cast<double>(worst) / 8.0)
          << name;
    }
  }
}

TEST(PhaseInterning, NamesFirstSetInDifferentOrdersAcrossThreads) {
  constexpr int kRanks = 8;
  const std::vector<std::string> names = {"alpha", "beta", "gamma", "delta"};
  Machine machine(kRanks);
  machine.set_scheduler(SchedulerSpec{SchedulerKind::kThreads, 0, 0, 0});
  machine.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    for (int k = 0; k < 4; ++k) {
      // Each rank meets the names in its own rotated order.
      ctx.set_phase(names[static_cast<std::size_t>((r + k) % 4)]);
      const auto words = static_cast<std::size_t>((r + 1) * (k + 1));
      ctx.send((r + 1) % kRanks, k, std::vector<double>(words));
      (void)ctx.recv((r + kRanks - 1) % kRanks, k);
    }
  });
  const CommStats& stats = machine.stats();
  std::vector<std::string> listed = stats.phases();
  std::sort(listed.begin(), listed.end());
  std::vector<std::string> want = names;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(listed, want);  // each name once, whichever rank came first
  for (int r = 0; r < kRanks; ++r) {
    const int left = (r + kRanks - 1) % kRanks;
    for (int k = 0; k < 4; ++k) {
      const PhaseCounters c =
          stats.rank_phase(r, names[static_cast<std::size_t>((r + k) % 4)]);
      EXPECT_EQ(c.words_sent(), (r + 1) * (k + 1)) << r << "/" << k;
      EXPECT_EQ(c.words_received(), (left + 1) * (k + 1)) << r << "/" << k;
      EXPECT_EQ(c.messages_sent, 1);
    }
  }
}

TEST(PhaseInterning, TransportSaveRestoreKeepsAlgorithmPhasesExact) {
  FaultProfile dup_always;
  dup_always.dup_prob = 1.0;
  Machine machine(2);
  machine.enable_faults(dup_always, 5);
  machine.enable_reliable_transport(6);
  machine.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1, std::vector<double>(3));  // still in "default"
      ctx.set_phase("algo");
      ctx.send(1, 2, std::vector<double>(2));
      ctx.set_phase("idle");  // listed, never carries traffic
    } else {
      (void)ctx.recv(0, 1);
      ctx.set_phase("algo");
      (void)ctx.recv(0, 2);
    }
  });
  const CommStats& stats = machine.stats();
  // The duplicate's save/set/restore listed "transport", then restored (and
  // so listed) "default", exactly as the by-name accounting did.
  EXPECT_EQ(stats.phases(),
            (std::vector<std::string>{"transport", "default", "algo", "idle"}));
  EXPECT_EQ(stats.rank_phase(0, "default").words_sent(), 3);
  EXPECT_EQ(stats.rank_phase(0, "algo").words_sent(), 2);
  EXPECT_EQ(stats.rank_phase(0, "transport").words_sent(), 5);
  EXPECT_EQ(stats.rank_phase(0, "transport").messages_sent, 2);
  EXPECT_EQ(stats.rank_phase(1, "default").words_received(), 3);
  EXPECT_EQ(stats.rank_phase(1, "algo").words_received(), 2);
  EXPECT_EQ(stats.rank_phase(1, "transport").messages_received, 0);
  EXPECT_EQ(stats.rank_total(0).messages_sent, 4);
  EXPECT_EQ(stats.phase_critical_path_received_words("idle"), 0);
  EXPECT_EQ(stats.rank_phase(0, "idle").messages_sent, 0);
}

TEST(PhaseInterning, HeartbeatProbeRestoresTheActivePhase) {
  Machine machine(2);
  machine.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      ctx.set_phase("work");
      ctx.advance_clock(10.0);
      ctx.send(1, 5, {1.0});
    } else {
      ctx.set_phase("wait");
      RecvStatus status = RecvStatus::kDelivered;
      // The message departs at t > 10: a deadline of 1 times out, and the
      // timeout's zero-word probe lands in "heartbeat".
      EXPECT_FALSE(ctx.recv_timed(0, 5, 1.0, &status).has_value());
      EXPECT_EQ(status, RecvStatus::kTimedOut);
      (void)ctx.recv(0, 5);
    }
  });
  const CommStats& stats = machine.stats();
  EXPECT_EQ(stats.rank_phase(1, "heartbeat").messages_sent, 1);
  EXPECT_EQ(stats.rank_phase(1, "heartbeat").words_sent(), 0);
  EXPECT_EQ(stats.rank_phase(1, "wait").words_received(), 1);
  EXPECT_EQ(stats.phase(1), "wait");
  const std::vector<std::string> listed = stats.phases();
  const auto at = [&](const char* name) {
    return std::find(listed.begin(), listed.end(), name) - listed.begin();
  };
  ASSERT_LT(at("heartbeat"), static_cast<long>(listed.size()));
  EXPECT_LT(at("wait"), at("heartbeat"));
}

}  // namespace
}  // namespace camb
