// Deeper CONGEST simulator semantics: delivery timing, halting and
// reactivation, stats deltas across phases, observer composition, and API
// misuse.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "congest/trace.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"

namespace qc::congest {
namespace {

using graph::NodeId;

/// Sends one message to port 0 at a chosen round, records inbox history.
class TimedSender : public NodeProgram {
 public:
  explicit TimedSender(std::uint32_t send_round) : send_round_(send_round) {}
  void on_round(NodeContext& ctx) override {
    inbox_rounds_.reserve(8);
    for (const auto& in : ctx.inbox()) {
      (void)in;
      inbox_rounds_.push_back(ctx.round());
    }
    if (ctx.round() == send_round_ && ctx.degree() > 0) {
      ctx.send(0, Message().push(1, 4));
    }
  }
  std::vector<std::uint32_t> inbox_rounds_;

 private:
  std::uint32_t send_round_;
};

TEST(Delivery, MessageSentAtRoundTArrivesAtTPlusOne) {
  auto g = graph::make_path(2);
  Network net(g);
  net.init_programs([](NodeId v) {
    return std::make_unique<TimedSender>(v == 0 ? 3u : 1000u);
  });
  net.run_rounds(6);
  const auto& receiver = net.program_as<TimedSender>(1);
  ASSERT_EQ(receiver.inbox_rounds_.size(), 1u);
  EXPECT_EQ(receiver.inbox_rounds_[0], 4u);
}

TEST(Delivery, NoSpuriousDeliveries) {
  auto g = graph::make_cycle(5);
  Network net(g);
  net.init_programs(
      [](NodeId) { return std::make_unique<TimedSender>(10000); });
  auto stats = net.run_rounds(5);
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_EQ(stats.bits, 0u);
}

/// Halts immediately; counts how many times on_round ran.
class SleepyProgram : public NodeProgram {
 public:
  void on_round(NodeContext& ctx) override {
    ++wakeups_;
    ctx.vote_halt();
  }
  int wakeups_ = 0;
};

TEST(Halting, HaltedNodesAreNotScheduled) {
  auto g = graph::make_path(3);
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<SleepyProgram>(); });
  net.run_rounds(10);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(net.program_as<SleepyProgram>(v).wakeups_, 1);
  }
}

/// Node 0 pokes its neighbor once per phase to test reactivation.
class PokeProgram : public NodeProgram {
 public:
  void on_start(NodeContext& ctx) override {
    if (ctx.id() == 0) ctx.send(0, Message().push(1, 2));
  }
  void on_round(NodeContext& ctx) override {
    wakeups_ += 1;
    ctx.vote_halt();
  }
  int wakeups_ = 0;
};

TEST(Halting, MessageReactivatesHaltedNode) {
  auto g = graph::make_path(2);
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<PokeProgram>(); });
  auto stats = net.run_until_quiescent(10);
  EXPECT_TRUE(stats.quiesced);
  // Node 1: woken by the poke at round 1; node 0: ran at round 1, halted.
  EXPECT_EQ(net.program_as<PokeProgram>(1).wakeups_, 1);
}

TEST(Quiescence, CapReturnsNotQuiesced) {
  auto g = graph::make_path(2);
  class Chatter : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override {
      ctx.broadcast(Message().push(1, 2));  // never halts
    }
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<Chatter>(); });
  auto stats = net.run_until_quiescent(7);
  EXPECT_FALSE(stats.quiesced);
  EXPECT_EQ(stats.rounds, 7u);
}

TEST(Stats, DeltasAcrossPhasesAddUp) {
  auto g = graph::make_cycle(6);
  class Burst : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override {
      if (ctx.round() <= 4) ctx.broadcast(Message().push(1, 8));
    }
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<Burst>(); });
  auto first = net.run_rounds(3);
  auto second = net.run_rounds(3);
  EXPECT_EQ(first.rounds, 3u);
  EXPECT_EQ(second.rounds, 3u);
  EXPECT_EQ(net.stats().rounds, 6u);
  EXPECT_EQ(net.stats().messages, first.messages + second.messages);
  EXPECT_EQ(net.stats().bits, first.bits + second.bits);
}

TEST(Observer, SeesEveryDeliveryInOrder) {
  auto g = graph::make_path(3);
  std::vector<std::uint32_t> rounds_seen;
  NetworkConfig cfg;
  cfg.observer = std::make_shared<CallbackObserver>(
      [&](NodeId, NodeId, const Message&, std::uint32_t r) {
        rounds_seen.push_back(r);
      });
  Network net(g, cfg);
  net.init_programs([](NodeId v) {
    return std::make_unique<TimedSender>(v == 0 ? 1u : 2u);
  });
  auto stats = net.run_rounds(4);
  EXPECT_EQ(rounds_seen.size(), stats.messages);
  EXPECT_TRUE(std::is_sorted(rounds_seen.begin(), rounds_seen.end()));
}

TEST(Observer, MultiObserverFansOutInOrder) {
  std::vector<int> order;
  auto mk = [&](int tag) {
    return std::make_shared<CallbackObserver>(
        [&order, tag](NodeId, NodeId, const Message&, std::uint32_t) {
          order.push_back(tag);
        });
  };
  auto combined = MultiObserver::combine(mk(1), mk(2));
  ASSERT_NE(combined, nullptr);
  Message msg;
  combined->on_deliver(0, 1, msg, 1);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));

  // combine() passes a lone observer through untouched.
  auto lone = mk(3);
  EXPECT_EQ(MultiObserver::combine(lone, nullptr), lone);
  EXPECT_EQ(MultiObserver::combine(nullptr, lone), lone);
  EXPECT_EQ(MultiObserver::combine(nullptr, nullptr), nullptr);
}

TEST(Observer, TraceRecorderClearWorks) {
  auto g = graph::make_path(3);
  TraceRecorder rec;
  Network net(g, rec.arm({}));
  net.init_programs([](NodeId) { return std::make_unique<TimedSender>(1); });
  net.run_rounds(3);
  EXPECT_FALSE(rec.events().empty());
  rec.clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.last_round(), 0u);
}

TEST(Api, ProgramAsRejectsWrongType) {
  auto g = graph::make_path(2);
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<SleepyProgram>(); });
  net.run_rounds(1);
  EXPECT_NO_THROW(net.program_as<SleepyProgram>(0));
  EXPECT_THROW(net.program_as<PokeProgram>(0), InvalidArgumentError);
}

TEST(Api, RunWithoutProgramsThrows) {
  auto g = graph::make_path(2);
  Network net(g);
  EXPECT_THROW(net.run_rounds(1), InvalidArgumentError);
}

TEST(Api, FactoryReturningNullThrows) {
  auto g = graph::make_path(2);
  Network net(g);
  EXPECT_THROW(
      net.init_programs([](NodeId) -> std::unique_ptr<NodeProgram> {
        return nullptr;
      }),
      InvalidArgumentError);
}

TEST(Api, RejectedBroadcastQueuesNothing) {
  // A node takes a port with send, then broadcasts. When the broadcast
  // meets the taken port it throws — and must not have queued any other
  // port first. Otherwise a neighbor would get mail nobody counted as in
  // flight, and the quiescence counter would never settle.
  class Contested : public NodeProgram {
   public:
    Contested(NodeId actor, std::function<void(NodeContext&)> act)
        : actor_(actor), act_(std::move(act)) {}
    void on_round(NodeContext& ctx) override {
      for (const auto& in : ctx.inbox()) {
        heard.push_back({ctx.round(), in.msg.field(0)});
      }
      if (ctx.id() == actor_ && ctx.round() == 1) {
        try {
          act_(ctx);
        } catch (const InvalidArgumentError&) {
          threw = true;
        }
      }
      ctx.vote_halt();
    }
    std::vector<std::pair<std::uint32_t, std::uint64_t>> heard;
    bool threw = false;

   private:
    NodeId actor_;
    std::function<void(NodeContext&)> act_;
  };
  using Heard = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
  struct Case {
    const char* name;
    graph::Graph g;
    NodeId actor;
    std::function<void(NodeContext&)> act;
    bool throws;
    std::vector<Heard> heard;  // per node
  };
  std::vector<Case> cases;
  // The middle of a path 0-1-2 takes port 1, then broadcasts on all ports.
  cases.push_back({"broadcast", graph::make_path(3), 1,
                   [](NodeContext& ctx) {
                     ctx.send(1, Message().push(5, 4));
                     ctx.broadcast(Message().push(9, 4));
                   },
                   true,
                   {{}, {}, {{2, 5}}}});
  // The hub of a star with leaves 1, 2, 3 takes port 2 (leaf 3), then
  // broadcasts leaving out port 0: port 2 is still contested, and port 1
  // (leaf 2) must stay unqueued.
  cases.push_back({"except, busy port", graph::make_star(4), 0,
                   [](NodeContext& ctx) {
                     ctx.send(2, Message().push(5, 4));
                     ctx.broadcast(Message().push(9, 4), 0);
                   },
                   true,
                   {{}, {}, {}, {{2, 5}}}});
  // Leaving out the taken port is legal: the broadcast goes out on the
  // other two ports next to the send.
  cases.push_back({"except the busy port", graph::make_star(4), 0,
                   [](NodeContext& ctx) {
                     ctx.send(0, Message().push(5, 4));
                     ctx.broadcast(Message().push(9, 4), 0);
                   },
                   false,
                   {{}, {{2, 5}}, {{2, 9}}, {{2, 9}}}});
  // An excepted port past the last one is a caller bug, not "no port".
  cases.push_back({"except out of range", graph::make_star(4), 0,
                   [](NodeContext& ctx) {
                     ctx.broadcast(Message().push(9, 4), 3);
                   },
                   true,
                   {{}, {}, {}, {}}});
  for (const Case& c : cases) {
    Network net(c.g);
    net.init_programs([&c](NodeId) {
      return std::make_unique<Contested>(c.actor, c.act);
    });
    const auto stats = net.run_until_quiescent(10);
    EXPECT_EQ(net.program_as<Contested>(c.actor).threw, c.throws) << c.name;
    EXPECT_TRUE(stats.quiesced) << c.name;
    std::uint64_t delivered = 0;
    for (NodeId v = 0; v < c.g.n(); ++v) {
      EXPECT_EQ(net.program_as<Contested>(v).heard, c.heard[v])
          << c.name << " node " << v;
      delivered += c.heard[v].size();
    }
    EXPECT_EQ(stats.messages, delivered) << c.name;
    // Round 2 delivers what round 1 queued; with nothing queued the
    // network is quiet after round 1.
    EXPECT_EQ(stats.rounds, delivered > 0 ? 2u : 1u) << c.name;
  }
}

TEST(Api, ReinitStartsWithEmptyInboxes) {
  // on_start runs in round 0, like the first on_start did: the inboxes of
  // the abandoned run must not show through.
  auto g = graph::make_cycle(4);
  class Chatter : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override {
      ctx.broadcast(Message().push(1, 2));
    }
  };
  class Peek : public NodeProgram {
   public:
    void on_start(NodeContext& ctx) override {
      start_inbox = ctx.inbox().size();
    }
    void on_round(NodeContext& ctx) override { ctx.vote_halt(); }
    std::size_t start_inbox = 99;
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<Chatter>(); });
  net.run_rounds(3);
  net.init_programs([](NodeId) { return std::make_unique<Peek>(); });
  const auto stats = net.run_until_quiescent(5);
  EXPECT_TRUE(stats.quiesced);
  EXPECT_EQ(stats.messages, 0u);
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_EQ(net.program_as<Peek>(v).start_inbox, 0u) << "node " << v;
  }
}

TEST(Api, ReinitResetsState) {
  auto g = graph::make_path(3);
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<TimedSender>(1); });
  net.run_rounds(3);
  EXPECT_GT(net.stats().messages, 0u);
  net.init_programs([](NodeId) { return std::make_unique<SleepyProgram>(); });
  EXPECT_EQ(net.stats().rounds, 0u);
  EXPECT_EQ(net.stats().messages, 0u);
  auto stats = net.run_until_quiescent(5);
  EXPECT_TRUE(stats.quiesced);
}

TEST(Bandwidth, DefaultTracksLogN) {
  auto small = Network(graph::make_path(8), {});
  auto large = Network(graph::make_path(4096), {});
  EXPECT_LT(small.bandwidth_bits(), large.bandwidth_bits());
  EXPECT_EQ(large.bandwidth_bits(), congest_bandwidth_bits(4096));
}

TEST(Bandwidth, PerDirectionIndependent) {
  // A full-size message in each direction of one edge in the same round
  // is legal: bandwidth is per edge *direction*.
  auto g = graph::make_path(2);
  NetworkConfig cfg;
  cfg.bandwidth_bits = 8;
  class BothWays : public NodeProgram {
   public:
    void on_start(NodeContext& ctx) override {
      ctx.send(0, Message().push(255, 8));
    }
    void on_round(NodeContext& ctx) override { ctx.vote_halt(); }
  };
  Network net(g, cfg);
  net.init_programs([](NodeId) { return std::make_unique<BothWays>(); });
  auto stats = net.run_rounds(1);
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_EQ(stats.messages, 2u);
}


// ---------------------------------------------------------------------------
// The run rule: a node runs iff it is up and has mail, is awake (not halted,
// not on-demand) or has a due wake-up; and the wake_at contract.
// ---------------------------------------------------------------------------

/// On-demand program driven by a per-node list of wake-ups: arms the first
/// in on_start, and on every run records the round, arms the next listed
/// round after it, and (on node 0 at `send_round`) mails port 0.
class Alarm : public NodeProgram {
 public:
  explicit Alarm(std::vector<std::uint32_t> wakes, std::uint32_t send_round = 0)
      : wakes_(std::move(wakes)), send_round_(send_round) {}
  bool on_demand() const override { return true; }
  void on_start(NodeContext& ctx) override { arm(ctx); }
  void on_round(NodeContext& ctx) override {
    ran.push_back(ctx.round());
    if (ctx.round() == send_round_) ctx.send(0, Message().push(1, 2));
    arm(ctx);
  }
  std::vector<std::uint32_t> ran;

 private:
  void arm(NodeContext& ctx) const {
    for (const std::uint32_t r : wakes_) {
      if (r > ctx.round()) {
        ctx.wake_at(r);
        return;
      }
    }
  }
  std::vector<std::uint32_t> wakes_;
  std::uint32_t send_round_;
};

using Rounds = std::vector<std::uint32_t>;

TEST(RunRule, OnDemandRunsOnlyWithMailOrADueWakeUp) {
  auto g = graph::make_path(3);
  Network net(g);
  net.init_programs([](NodeId v) {
    return v == 0 ? std::make_unique<Alarm>(Rounds{3, 5}, 3)
                  : std::make_unique<Alarm>(Rounds{});
  });
  net.run_rounds(8);
  EXPECT_EQ(net.program_as<Alarm>(0).ran, (Rounds{3, 5}));
  EXPECT_EQ(net.program_as<Alarm>(1).ran, (Rounds{4}));  // mail only
  EXPECT_TRUE(net.program_as<Alarm>(2).ran.empty());
}

TEST(RunRule, WakeAtRejectsPastRoundsAndALaterCallReplaces) {
  auto g = graph::make_path(2);
  class Rearm : public NodeProgram {
   public:
    bool on_demand() const override { return true; }
    void on_start(NodeContext& ctx) override {
      EXPECT_THROW(ctx.wake_at(0), InvalidArgumentError);
      ctx.wake_at(5);
      ctx.wake_at(3);  // replaces 5
    }
    void on_round(NodeContext& ctx) override {
      ran.push_back(ctx.round());
      EXPECT_THROW(ctx.wake_at(ctx.round()), InvalidArgumentError);
      EXPECT_THROW(ctx.wake_at(ctx.round() - 1), InvalidArgumentError);
    }
    Rounds ran;
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<Rearm>(); });
  net.run_rounds(8);
  EXPECT_EQ(net.program_as<Rearm>(0).ran, (Rounds{3}));
  EXPECT_EQ(net.program_as<Rearm>(1).ran, (Rounds{3}));
}

TEST(RunRule, WakeUpOfACrashedNodeFiresInItsFirstRoundUp) {
  auto g = graph::make_path(2);
  NetworkConfig cfg;
  cfg.fault.crashes = {CrashWindow{0, 2, 5}};
  Network net(g, cfg);
  net.init_programs([](NodeId v) {
    return std::make_unique<Alarm>(v == 0 ? Rounds{3, 7} : Rounds{3});
  });
  net.run_rounds(9);
  // Node 0 is down in rounds 2-4: its round-3 wake-up fires in round 5.
  EXPECT_EQ(net.program_as<Alarm>(0).ran, (Rounds{5, 7}));
  EXPECT_EQ(net.program_as<Alarm>(1).ran, (Rounds{3}));
}

TEST(RunRule, HaltedNodeLeavesTheRunSetAndRejoinsOnMail) {
  auto g = graph::make_path(2);
  class Halter : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override {
      ran.push_back(ctx.round());
      if (ctx.id() == 0 && ctx.round() == 3) ctx.send(0, Message().push(1, 2));
      if (ctx.id() == 1) ctx.vote_halt();
    }
    Rounds ran;
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<Halter>(); });
  net.run_rounds(6);
  EXPECT_EQ(net.program_as<Halter>(0).ran, (Rounds{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(net.program_as<Halter>(1).ran, (Rounds{1, 4}));
}

TEST(RunRule, PendingWakeUpBlocksQuiescence) {
  auto g = graph::make_path(3);
  class LateAlarm : public NodeProgram {
   public:
    void on_start(NodeContext& ctx) override {
      if (ctx.id() == 0) ctx.wake_at(10);
    }
    void on_round(NodeContext& ctx) override {
      ran.push_back(ctx.round());
      ctx.vote_halt();
    }
    Rounds ran;
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<LateAlarm>(); });
  const auto st = net.run_until_quiescent(50);
  EXPECT_TRUE(st.quiesced);
  EXPECT_EQ(st.rounds, 10u);
  // The due wake-up re-activates the halted node, like mail would.
  EXPECT_EQ(net.program_as<LateAlarm>(0).ran, (Rounds{1, 10}));
  EXPECT_EQ(net.program_as<LateAlarm>(1).ran, (Rounds{1}));
}

TEST(RunRule, AuditKeepsTheMaximumOfANodeThatNeverRunsAgain) {
  auto g = graph::make_path(3);
  class Peak : public NodeProgram {
   public:
    bool on_demand() const override { return true; }
    void on_start(NodeContext& ctx) override {
      if (ctx.id() == 0) ctx.wake_at(2);
    }
    void on_round(NodeContext&) override { bits = 900; }
    std::uint64_t memory_bits() const override { return bits; }
    std::uint64_t bits = 1;
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<Peak>(); });
  EXPECT_EQ(net.run_rounds(4).max_node_memory_bits, 900u);
  // Node 0 never runs again, yet every later phase still reports it.
  EXPECT_EQ(net.run_rounds(3).max_node_memory_bits, 900u);
  EXPECT_EQ(net.run_rounds(1).max_node_memory_bits, 900u);
}

}  // namespace
}  // namespace qc::congest
