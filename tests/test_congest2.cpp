// Deeper CONGEST simulator semantics: delivery timing, halting and
// reactivation, stats deltas across phases, observer composition, and API
// misuse.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "congest/shard/sharded_network.hpp"
#include "congest/trace.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

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


// ---------------------------------------------------------------------------
// Delivery by arc: a hub that hears from a sparse, changing set of leaves.
// Delivery walks the receiver-side arcs that carry mail, so the hub's
// inbox must come out in port order and the event stream in (round,
// receiver, port) order however few of its ports are busy.
// ---------------------------------------------------------------------------

/// Order-sensitive hash fold.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// Stateless per-(node, round, port) coin.
std::uint64_t coin(NodeId v, std::uint32_t round, std::uint32_t port) {
  std::uint64_t x = (std::uint64_t{v} << 40) ^ (std::uint64_t{round} << 20) ^
                    port ^ 0x2545f4914f6cdd1dULL;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

/// Each round sends on about one port in eight (a degree-1 leaf thus
/// mails the hub in one round out of eight), broadcasts from high-degree
/// nodes every seventh round, and folds each inbox, in order, into
/// `hash`.
class Chatter final : public NodeProgram {
 public:
  void on_start(NodeContext& ctx) override { act(ctx); }
  void on_round(NodeContext& ctx) override {
    for (const auto& in : ctx.inbox()) {
      hash = fold(fold(fold(hash, ctx.round()), in.port), in.msg.field(0));
    }
    act(ctx);
  }
  void serialize_state(Message& out) const override { out.push(hash, 64); }
  void restore_state(const Message& in) override { hash = in.field(0); }
  std::uint64_t hash = 0;

 private:
  static void act(NodeContext& ctx) {
    const std::uint32_t deg = ctx.degree();
    const std::uint64_t tag = (ctx.id() * 31 + ctx.round()) & 0xff;
    if (deg > 16 && ctx.round() % 7 == 3) {
      ctx.broadcast(Message().push(tag, 8), ctx.round() % deg);
      return;
    }
    for (std::uint32_t p = 0; p < deg; ++p) {
      if (coin(ctx.id(), ctx.round(), p) % 8 == 0) {
        ctx.send(p, Message().push(tag ^ p, 8));
      }
    }
  }
};

/// A star of 140 leaves around hub 70 (ids 0..140), plus a 100-node
/// preferential-attachment tail (ids 141..240) hanging off the hub. The
/// hub's id sits mid-range, so its arcs cross every contiguous shard cut.
constexpr NodeId kHub = 70;

graph::Graph hub_graph() {
  Rng rng(5);
  const graph::Graph tail = graph::make_preferential_attachment(100, 2, rng);
  graph::GraphBuilder b(241);
  for (NodeId v = 0; v <= 140; ++v) {
    if (v != kHub) b.add_edge(kHub, v);
  }
  for (const auto& [u, v] : tail.edges()) b.add_edge(141 + u, 141 + v);
  b.add_edge(kHub, 141);
  b.add_edge(3, 150);    // a leaf with a second port
  b.add_edge(139, 200);
  return std::move(b).build();
}

enum class HubPlan { kNone, kDropsAndCrashes, kCorrupt };

NetworkConfig hub_config(HubPlan plan) {
  NetworkConfig cfg;
  switch (plan) {
    case HubPlan::kNone:
      break;
    case HubPlan::kDropsAndCrashes:
      cfg.fault.drop_probability = 0.05;
      cfg.fault.seed = 7;
      cfg.fault.crashes = {CrashWindow{kHub, 5, 9}, CrashWindow{141, 3, 6},
                           CrashWindow{12, 10, 30}, CrashWindow{kHub, 20, 21}};
      break;
    case HubPlan::kCorrupt:
      cfg.fault.corrupt_probability = 0.03;
      cfg.fault.seed = 7;
      break;
  }
  return cfg;
}

struct HubRun {
  std::uint64_t events = 0;  ///< hash of the observed event stream
  std::uint64_t nodes = 0;   ///< hash of every node's inbox hash
  std::uint64_t count = 0;   ///< observed events
  RunStats first, rest;
};

/// 12 rounds, then 28 more in a second phase.
template <typename Net>
HubRun run_hub(const graph::Graph& g, Net& net, std::uint64_t& events,
               std::uint64_t& count) {
  HubRun out;
  net.init_programs([](NodeId) { return std::make_unique<Chatter>(); });
  out.first = net.run_rounds(12);
  out.rest = net.run_rounds(28);
  out.events = events;
  out.count = count;
  for (NodeId v = 0; v < g.n(); ++v) {
    out.nodes = fold(out.nodes, net.template program_as<Chatter>(v).hash);
  }
  return out;
}

std::shared_ptr<DeliveryObserver> hub_observer(std::uint64_t& events,
                                               std::uint64_t& count) {
  return std::make_shared<CallbackObserver>(
      [&events, &count](NodeId from, NodeId to, const Message& m,
                        std::uint32_t round) {
        ++count;
        events = fold(fold(fold(fold(events, round), from), to), m.field(0));
      });
}

HubRun hub_sequential(const graph::Graph& g, HubPlan plan) {
  std::uint64_t events = 0, count = 0;
  NetworkConfig cfg = hub_config(plan);
  cfg.observer = hub_observer(events, count);
  Network net(g, cfg);
  return run_hub(g, net, events, count);
}

TEST(ArcDelivery, HubWithSparseSendersMatchesGoldenHashes) {
  const graph::Graph g = hub_graph();
  ASSERT_EQ(g.degree(kHub), 141u);
  // {event hash, node hash, events} per plan, captured with the
  // per-receiver delivery pass that scanned every port of a receiver with
  // mail.
  const std::vector<std::uint64_t> golden = {
      // none
      0xc992e7bd2240808cULL, 0xddbeec0708709085ULL, 4453ULL,
      // drops + crashes
      0x359123b98785706dULL, 0x244bf3a76174f5d2ULL, 4009ULL,
      // corrupt
      0x2e00308b8c8f0412ULL, 0xd9e3f4cb3fa1455aULL, 4453ULL,
  };
  std::vector<std::uint64_t> got;
  for (const HubPlan plan :
       {HubPlan::kNone, HubPlan::kDropsAndCrashes, HubPlan::kCorrupt}) {
    const HubRun r = hub_sequential(g, plan);
    got.insert(got.end(), {r.events, r.nodes, r.count});
    // The observer sees exactly the deliveries the stats count.
    EXPECT_EQ(r.first.messages + r.rest.messages, r.count);
  }
  std::string listing;
  for (const std::uint64_t x : got) listing += std::to_string(x) + "ULL,\n";
  ASSERT_EQ(got.size(), golden.size()) << listing;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], golden[i]) << "case " << i << "\n" << listing;
  }
}

TEST(ArcDelivery, HubRunIsBitIdenticalAcrossShardCounts) {
  const graph::Graph g = hub_graph();
  for (const HubPlan plan : {HubPlan::kNone, HubPlan::kDropsAndCrashes}) {
    const HubRun seq = hub_sequential(g, plan);
    for (const std::uint32_t w : {2u, 3u}) {
      const std::string where = "W=" + std::to_string(w) + " plan " +
                                std::to_string(static_cast<int>(plan));
      std::uint64_t events = 0, count = 0;
      shard::ShardConfig cfg;
      cfg.shards = w;
      cfg.net = hub_config(plan);
      cfg.net.observer = hub_observer(events, count);
      shard::ShardedNetwork net(g, cfg);
      const HubRun got = run_hub(g, net, events, count);
      net.shutdown();
      EXPECT_EQ(got.events, seq.events) << where;
      EXPECT_EQ(got.count, seq.count) << where;
      EXPECT_EQ(got.nodes, seq.nodes) << where;
      for (const auto& [a, b] :
           {std::pair{got.first, seq.first}, std::pair{got.rest, seq.rest}}) {
        EXPECT_EQ(a.rounds, b.rounds) << where;
        EXPECT_EQ(a.messages, b.messages) << where;
        EXPECT_EQ(a.bits, b.bits) << where;
        EXPECT_EQ(a.messages_dropped, b.messages_dropped) << where;
        EXPECT_EQ(a.crashed_node_rounds, b.crashed_node_rounds) << where;
      }
    }
  }
}

}  // namespace
}  // namespace qc::congest
