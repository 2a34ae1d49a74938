// The zero-allocation CONGEST delivery hot path: reverse-port table
// correctness (randomized against port_to, corrupted-adjacency construction
// failure), the no-heap-allocation-per-delivery invariant (this binary's
// global allocator is replaced by the counting probe), the flooding
// workload against its closed-form reference, the incremental quiescence
// counters, and the memory_bits sweep skip.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "congest/message.hpp"
#include "congest/network.hpp"
#include "congest/observer.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/alloc_probe.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

QC_INSTALL_ALLOC_PROBE();

namespace qc::congest {
namespace {

using graph::NodeId;

std::vector<std::vector<NodeId>> adjacency_of(const graph::Graph& g) {
  std::vector<std::vector<NodeId>> adj(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    adj[v].assign(nb.begin(), nb.end());
  }
  return adj;
}

TEST(ReversePorts, AgreesWithPortToOnRandomGraphs) {
  Rng rng(2024);
  for (int trial = 0; trial < 8; ++trial) {
    const auto n = static_cast<std::uint32_t>(16 + 17 * trial);
    auto g = trial % 2 == 0 ? graph::make_connected_er(n, 0.08, rng)
                            : graph::make_random_regular(n, 4, rng);
    const auto adj = adjacency_of(g);
    const auto rev = build_reverse_ports(adj);
    ASSERT_EQ(rev.size(), g.n());
    for (NodeId w = 0; w < g.n(); ++w) {
      ASSERT_EQ(rev[w].size(), adj[w].size());
      for (std::size_t p = 0; p < adj[w].size(); ++p) {
        const NodeId u = adj[w][p];
        // rev[w][p] is the port on u that leads back to w — i.e. exactly
        // what the old per-delivery binary search port_to(u -> w) found.
        ASSERT_LT(rev[w][p], adj[u].size());
        EXPECT_EQ(adj[u][rev[w][p]], w);
        const auto it = std::lower_bound(adj[u].begin(), adj[u].end(), w);
        EXPECT_EQ(rev[w][p],
                  static_cast<std::uint32_t>(it - adj[u].begin()));
      }
    }
  }
}

TEST(ReversePorts, DeliveryRoutesCorrectlyOnRandomGraphs) {
  // End-to-end check that the table actually routes: every node gossips its
  // id once; every node must hear exactly its neighbor set, in port order.
  Rng rng(7);
  auto g = graph::make_connected_er(64, 0.1, rng);
  class Gossip : public NodeProgram {
   public:
    void on_start(NodeContext& ctx) override {
      ctx.broadcast(Message().push(ctx.id(), ctx.id_bits()));
    }
    void on_round(NodeContext& ctx) override {
      for (const auto& in : ctx.inbox()) {
        heard.push_back(static_cast<NodeId>(in.msg.field(0)));
      }
      ctx.vote_halt();
    }
    std::vector<NodeId> heard;
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<Gossip>(); });
  net.run_rounds(1);
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    EXPECT_EQ(net.program_as<Gossip>(v).heard,
              std::vector<NodeId>(nb.begin(), nb.end()))
        << "node " << v;
  }
}

TEST(ReversePorts, CorruptedAdjacencyFailsConstruction) {
  // Unsorted list: ports would be misnumbered.
  std::vector<std::vector<NodeId>> unsorted = {{2, 1}, {0}, {0}};
  EXPECT_THROW(build_reverse_ports(unsorted), InvalidArgumentError);
  // Duplicate neighbor (not *strictly* sorted).
  std::vector<std::vector<NodeId>> dupe = {{1, 1}, {0}};
  EXPECT_THROW(build_reverse_ports(dupe), InvalidArgumentError);
  // Asymmetric: 0 lists 1 but 1 does not list 0.
  std::vector<std::vector<NodeId>> asym = {{1}, {}};
  EXPECT_THROW(build_reverse_ports(asym), InvalidArgumentError);
  // The omission sits in a later, otherwise valid list: 2 omits 0.
  std::vector<std::vector<NodeId>> asym_late = {{1, 2}, {0, 2}, {1}};
  EXPECT_THROW(build_reverse_ports(asym_late), InvalidArgumentError);
  // Out-of-range neighbor id.
  std::vector<std::vector<NodeId>> oob = {{5}, {0}};
  EXPECT_THROW(build_reverse_ports(oob), InvalidArgumentError);
  // A valid adjacency still builds.
  std::vector<std::vector<NodeId>> ok = {{1, 2}, {0, 2}, {0, 1}};
  const auto rev = build_reverse_ports(ok);
  EXPECT_EQ(rev[0], (std::vector<std::uint32_t>{0, 0}));
  EXPECT_EQ(rev[2], (std::vector<std::uint32_t>{1, 1}));
}

/// Order-sensitive hash fold: the same deliveries in another order give
/// another value.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// Floods (id, round) on every port every round, never halts, allocates no
/// heap memory of its own — the workload for the zero-allocation pin — and
/// folds each inbox, in order, into `hash`.
class Flood : public NodeProgram {
 public:
  void on_start(NodeContext& ctx) override { blast(ctx); }
  void on_round(NodeContext& ctx) override {
    for (const auto& in : ctx.inbox()) {
      hash = mix(mix(mix(hash, in.port), in.msg.field(0)), in.msg.field(1));
    }
    blast(ctx);
  }
  std::uint64_t hash = 0;

 private:
  static void blast(NodeContext& ctx) {
    ctx.broadcast(
        Message().push(ctx.id() & 0xff, 8).push(ctx.round() & 0xff, 8));
  }
};

/// Sends on every port, one message per port, with a different message on
/// one port (as BfsTreeProgram's child claim does): the per-port send path
/// stores one payload per port in the send arena.
class PortFlood : public NodeProgram {
 public:
  void on_start(NodeContext& ctx) override { send_all(ctx); }
  void on_round(NodeContext& ctx) override {
    for (const auto& in : ctx.inbox()) sink += in.msg.field(1);
    send_all(ctx);
  }
  std::uint64_t sink = 0;

 private:
  static void send_all(NodeContext& ctx) {
    const std::uint32_t marked = ctx.round() % ctx.degree();
    for (std::uint32_t p = 0; p < ctx.degree(); ++p) {
      Message m;
      m.push(ctx.id() & 0xff, 8).push(p == marked ? 1 : 0, 1);
      ctx.send(p, m);
    }
  }
};

TEST(HotPath, ZeroAllocationsPerDeliveryAtSteadyState) {
  // Both send paths store into the send arena: one payload per broadcast
  // (Flood), one per port (PortFlood).
  Rng rng(11);
  auto g = graph::make_connected_er(48, 0.12, rng);
  const std::vector<std::function<std::unique_ptr<NodeProgram>(NodeId)>>
      programs = {[](NodeId) { return std::make_unique<Flood>(); },
                  [](NodeId) { return std::make_unique<PortFlood>(); }};
  for (const auto& make : programs) {
    Network net(g);
    net.init_programs(make);
    // Warm-up: view-list and send-arena capacities and the one-time start
    // costs settle.
    net.run_rounds(3);
    const std::uint64_t before = qc::alloc_probe_count().load();
    const RunStats st = net.run_rounds(50);
    const std::uint64_t after = qc::alloc_probe_count().load();
    ASSERT_GT(st.messages, 4000u);  // the region really delivered traffic
    ASSERT_EQ(st.messages, 50 * 2 * g.m());  // every arc, every round
    EXPECT_EQ(after - before, 0u)
        << "the no-fault sequential delivery path must not touch the heap";
  }
}

TEST(HotPath, FloodMatchesTheClosedFormReference) {
  // Flood's traffic follows from the graph alone: in round r node w hears,
  // on each port p in order, (neighbor id, r - 1). Both phases of the run
  // are checked against that replay — one delivery of 8 + 8 bits per arc
  // per round, and every node's order-sensitive inbox hash — with and
  // without an armed observer, which must see exactly the deliveries the
  // stats count.
  Rng rng(11);
  auto g = graph::make_connected_er(48, 0.12, rng);
  const std::uint32_t warm = 3;
  const std::uint32_t rounds = 50;
  for (const bool armed : {false, true}) {
    NetworkConfig cfg;
    std::uint64_t observed = 0;
    if (armed) {
      cfg.observer = std::make_shared<CallbackObserver>(
          [&observed](NodeId, NodeId, const Message&, std::uint32_t) {
            ++observed;
          });
    }
    Network net(g, cfg);
    net.init_programs([](NodeId) { return std::make_unique<Flood>(); });
    net.run_rounds(warm);
    const RunStats st = net.run_rounds(rounds);
    EXPECT_EQ(st.messages, std::uint64_t{rounds} * 2 * g.m());
    EXPECT_EQ(st.bits, st.messages * (8 + 8));
    EXPECT_EQ(net.stats().messages, std::uint64_t{warm + rounds} * 2 * g.m());
    EXPECT_EQ(net.stats().bits, net.stats().messages * (8 + 8));
    if (armed) {
      EXPECT_EQ(observed, net.stats().messages);
    }
    for (NodeId w = 0; w < g.n(); ++w) {
      const auto nb = g.neighbors(w);
      std::uint64_t want = 0;
      for (std::uint32_t r = 1; r <= warm + rounds; ++r) {
        for (std::uint32_t p = 0; p < nb.size(); ++p) {
          want = mix(mix(mix(want, p), nb[p] & 0xff), (r - 1) & 0xff);
        }
      }
      EXPECT_EQ(net.program_as<Flood>(w).hash, want)
          << (armed ? "observed" : "unobserved") << " node " << w;
    }
  }
}

/// A seed message of 1 to kMaxFields fields, so relayed payloads cover
/// every message size up to the cap.
Message relay_seed(NodeId v) {
  Message m;
  for (std::size_t i = 0; i < 1 + v % Message::kMaxFields; ++i) {
    m.push((v * 7 + i) & 0xff, 8);
  }
  return m;
}

/// Relays received views from inside the inbox loop: either echoes each
/// one back on the port it came in on (send(in.port, in.msg)), or
/// broadcasts the first one (broadcast(in.msg)).
class Relay : public NodeProgram {
 public:
  explicit Relay(bool by_broadcast) : by_broadcast_(by_broadcast) {}
  void on_start(NodeContext& ctx) override {
    ctx.broadcast(relay_seed(ctx.id()));
    sent.push_back(relay_seed(ctx.id()));
  }
  void on_round(NodeContext& ctx) override {
    got.emplace_back();
    for (const auto& in : ctx.inbox()) {
      got.back().push_back(in.msg);
      if (!by_broadcast_) {
        ctx.send(in.port, in.msg);
      } else if (&in == &ctx.inbox().front()) {
        ctx.broadcast(in.msg);
        sent.push_back(in.msg);
      }
    }
  }
  std::vector<std::vector<Message>> got;  ///< got[r - 1][port]
  std::vector<Message> sent;              ///< sent[r]: the round-r broadcast

 private:
  bool by_broadcast_;
};

TEST(HotPath, InboxViewsSurviveSameRoundSends) {
  Rng rng(3);
  auto g = graph::make_connected_er(40, 0.15, rng);
  NetworkConfig cfg;
  cfg.bandwidth_bits = 128;
  const std::uint32_t rounds = 12;
  for (const bool by_broadcast : {false, true}) {
    Network net(g, cfg);
    net.init_programs([by_broadcast](NodeId) {
      return std::make_unique<Relay>(by_broadcast);
    });
    const RunStats st = net.run_rounds(rounds);
    EXPECT_EQ(st.messages, rounds * 2 * g.m());
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto& relay = net.program_as<Relay>(v);
      ASSERT_EQ(relay.got.size(), rounds);
      const auto nb = g.neighbors(v);
      for (std::uint32_t r = 1; r <= rounds; ++r) {
        const auto& inbox = relay.got[r - 1];
        ASSERT_EQ(inbox.size(), nb.size()) << "node " << v << " round " << r;
        for (std::size_t p = 0; p < nb.size(); ++p) {
          // An echo bounces between the two ends of an edge unchanged; a
          // broadcast relay delivers what the neighbor sent last round.
          const Message want =
              by_broadcast ? net.program_as<Relay>(nb[p]).sent[r - 1]
                           : relay_seed(r % 2 == 1 ? nb[p] : v);
          EXPECT_TRUE(inbox[p] == want)
              << (by_broadcast ? "broadcast" : "echo") << " node " << v
              << " round " << r << " port " << p;
        }
      }
    }
  }
}

TEST(HotPath, MovedOutboxSlotsAreReusable) {
  // A port is free again in the round after its message was delivered
  // (the receiver consumed the arc), so a sender can queue on the same
  // port every round, with every message size up to the cap.
  auto g = graph::make_path(2);
  NetworkConfig cfg;
  cfg.bandwidth_bits = 64;
  class Pitcher : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override {
      for (const auto& in : ctx.inbox()) {
        last_seen.assign(1, in.msg.field(0));
        fields_seen = in.msg.num_fields();
      }
      Message m;
      const auto fields =
          1 + (ctx.round() % Message::kMaxFields);
      for (std::size_t i = 0; i < fields; ++i) {
        m.push(ctx.round() & 1, 1);
      }
      if (ctx.id() == 0) ctx.send(0, m);
    }
    std::vector<std::uint64_t> last_seen;
    std::size_t fields_seen = 0;
  };
  Network net(g, cfg);
  net.init_programs([](NodeId) { return std::make_unique<Pitcher>(); });
  for (std::uint32_t r = 1; r <= 2 * Message::kMaxFields + 4; ++r) {
    net.run_rounds(1);
    auto& receiver = net.program_as<Pitcher>(1);
    if (r >= 2) {
      const std::uint32_t sent_round = r - 1;
      ASSERT_EQ(receiver.last_seen,
                std::vector<std::uint64_t>{sent_round & 1});
      EXPECT_EQ(receiver.fields_seen,
                1 + (sent_round % Message::kMaxFields));
    }
  }
}

TEST(MemoryAudit, ReportingProgramsAreStillSwept) {
  auto g = graph::make_path(3);
  class Grower : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override {
      bits = 50 * ctx.round();
      if (ctx.round() >= 4) ctx.vote_halt();
    }
    std::uint64_t memory_bits() const override { return bits; }
    std::uint64_t bits = 1;  // nonzero from the start: the program audits
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<Grower>(); });
  const auto phase1 = net.run_rounds(2);
  EXPECT_EQ(phase1.max_node_memory_bits, 100u);
  const auto phase2 = net.run_rounds(2);
  EXPECT_EQ(phase2.max_node_memory_bits, 200u);
  EXPECT_EQ(net.stats().max_node_memory_bits, 200u);
}

TEST(MemoryAudit, AllZeroRoundOneDisablesTheSweep) {
  // Contract pin for the optimization: a program that reports 0 in the
  // first executed round is "not audited" (see NodeProgram::memory_bits),
  // so a later nonzero report is not observed. Programs that audit memory
  // must report nonzero from round 1 — every program in src/algos does.
  auto g = graph::make_path(3);
  class LateReporter : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override { round = ctx.round(); }
    std::uint64_t memory_bits() const override {
      return round >= 2 ? 4096 : 0;
    }
    std::uint32_t round = 0;
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<LateReporter>(); });
  const auto stats = net.run_rounds(5);
  EXPECT_EQ(stats.max_node_memory_bits, 0u);
  // Re-initializing re-arms the audit.
  class Auditor : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override { ctx.vote_halt(); }
    std::uint64_t memory_bits() const override { return 17; }
  };
  net.init_programs([](NodeId) { return std::make_unique<Auditor>(); });
  EXPECT_EQ(net.run_rounds(2).max_node_memory_bits, 17u);
}

TEST(Quiescence, CountersTrackWave) {
  // One wave floods out from node 0 and dies; the O(1) counters must detect
  // quiescence in the round after the wave reaches the farthest node (debug
  // builds additionally assert counters == scan every round).
  Rng rng(5);
  auto g = graph::make_connected_er(56, 0.09, rng);
  class Wave : public NodeProgram {
   public:
    void on_start(NodeContext& ctx) override {
      if (ctx.id() == 0) ctx.broadcast(Message().push(0, 8));
    }
    void on_round(NodeContext& ctx) override {
      if (!seen_ && !ctx.inbox().empty()) {
        seen_ = true;
        ctx.broadcast(Message().push(ctx.id() & 0xff, 8));
      }
      ctx.vote_halt();
    }
    bool seen_ = false;
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<Wave>(); });
  const auto st = net.run_until_quiescent(200);
  EXPECT_TRUE(st.quiesced);
  // The last nodes reached broadcast in round ecc(0); their messages land
  // in round ecc(0) + 1, after which nothing is in flight.
  EXPECT_EQ(st.rounds, graph::eccentricity(g, 0) + 1);
  // Every node broadcasts once on first contact; node 0 (whose start-up
  // broadcast does not set seen_) broadcasts a second time.
  EXPECT_EQ(st.messages, 2 * g.m() + g.degree(0));
}

TEST(Quiescence, ReinitAfterPartialRunResetsCounters) {
  // A run abandoned mid-flight (messages still queued, some nodes halted)
  // must not leak counter state into the next init_programs generation.
  auto g = graph::make_cycle(8);
  class Chatter : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override {
      ctx.broadcast(Message().push(1, 2));
    }
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<Chatter>(); });
  auto st = net.run_until_quiescent(4);
  EXPECT_FALSE(st.quiesced);
  class Sleeper : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override { ctx.vote_halt(); }
  };
  net.init_programs([](NodeId) { return std::make_unique<Sleeper>(); });
  st = net.run_until_quiescent(5);
  EXPECT_TRUE(st.quiesced);
  EXPECT_EQ(st.rounds, 1u);  // everyone halts in round 1, nothing in flight
}

}  // namespace
}  // namespace qc::congest
