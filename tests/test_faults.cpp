// The deterministic fault-injection layer and the run-lifecycle fixes that
// shipped with it: true per-phase RunStats deltas, RNG reseeding on
// init_programs, adjacency sortedness validation, kTruncate clipping, and
// the graceful-degradation contract of the algorithm layer.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algos/bfs_tree.hpp"
#include "algos/evaluation.hpp"
#include "algos/girth.hpp"
#include "algos/hprw.hpp"
#include "algos/leader_election.hpp"
#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "congest/shard/sharded_network.hpp"
#include "congest/trace.hpp"
#include "core/detail.hpp"
#include "core/optimizer.hpp"
#include "core/quantum_approx.hpp"
#include "core/quantum_decision.hpp"
#include "core/quantum_diameter.hpp"
#include "core/quantum_radius.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace qc {
namespace {

using congest::CrashWindow;
using congest::Message;
using congest::Network;
using congest::NetworkConfig;
using congest::NodeContext;
using graph::Graph;
using graph::NodeId;

Graph random_graph(std::uint32_t n, std::uint32_t d, std::uint64_t seed) {
  Rng rng(seed);
  return graph::make_random_with_diameter(n, d, rng);
}

/// Broadcasts one `width(round)`-bit message per round through round
/// `last_send`, then goes quiet; never reacts to its inbox, so the send
/// schedule (and hence the fault-free delivery count) is input-independent.
class ChatterProgram : public congest::NodeProgram {
 public:
  explicit ChatterProgram(std::uint32_t last_send, std::uint32_t bits = 8)
      : last_send_(last_send), bits_(bits) {}

  void on_start(NodeContext& ctx) override {
    ctx.broadcast(Message().push(1, bits_));
  }

  void on_round(NodeContext& ctx) override {
    if (ctx.round() <= last_send_) {
      ctx.broadcast(Message().push(1, bits_));
    }
    ctx.vote_halt();
  }

 private:
  std::uint32_t last_send_;
  std::uint32_t bits_;
};

// ---------------------------------------------------------------------------
// Satellite regression: run_rounds / run_until_quiescent report true
// per-phase deltas, not lifetime state.
// ---------------------------------------------------------------------------

// Sends wide (16-bit) messages through round 2 and narrow (4-bit) ones
// afterwards; memory_bits shrinks at the same boundary.
class ShrinkingProgram : public congest::NodeProgram {
 public:
  void on_start(NodeContext& ctx) override {
    ctx.broadcast(Message().push(1, 16));
  }

  void on_round(NodeContext& ctx) override {
    last_round_ = ctx.round();
    if (ctx.round() <= 5) {
      const std::uint32_t bits = ctx.round() <= 2 ? 16 : 4;
      ctx.broadcast(Message().push(1, bits));
    } else {
      ctx.vote_halt();
    }
  }

  std::uint64_t memory_bits() const override {
    return last_round_ <= 3 ? 1000 : 10;
  }

 private:
  std::uint32_t last_round_ = 0;
};

TEST(PerPhaseStats, MaximaAreNotLifetimeHighWaterMarks) {
  auto g = graph::make_path(4);
  Network net(g);
  net.init_programs(
      [](NodeId) { return std::make_unique<ShrinkingProgram>(); });

  // Phase 1 (rounds 1-3): every delivery is 16 bits and memory is high.
  auto phase1 = net.run_rounds(3);
  EXPECT_EQ(phase1.rounds, 3u);
  EXPECT_EQ(phase1.max_edge_bits, 16u);
  EXPECT_EQ(phase1.max_node_memory_bits, 1000u);

  // Phase 2 (rounds 4-6): only 4-bit messages (queued in rounds 3-5) and
  // shrunk memory. The old delta computation copied the lifetime maxima
  // (16 / 1000) into the second phase.
  auto phase2 = net.run_rounds(3);
  EXPECT_EQ(phase2.rounds, 3u);
  EXPECT_EQ(phase2.max_edge_bits, 4u);
  EXPECT_EQ(phase2.max_node_memory_bits, 10u);

  // The lifetime aggregate still carries the high-water marks.
  EXPECT_EQ(net.stats().max_edge_bits, 16u);
  EXPECT_EQ(net.stats().max_node_memory_bits, 1000u);
  EXPECT_EQ(net.stats().rounds, 6u);
}

TEST(PerPhaseStats, RunRoundsReportsCurrentQuiescence) {
  auto g = graph::make_path(3);
  Network net(g);
  net.init_programs(
      [](NodeId) { return std::make_unique<ChatterProgram>(4); });

  // Mid-chatter: messages still in flight.
  auto phase1 = net.run_rounds(2);
  EXPECT_FALSE(phase1.quiesced);

  // By round 7 the last send (round 4) has long been delivered and every
  // node has halted; run_rounds must say so. (The old code copied the
  // stale lifetime flag, which run_rounds never set.)
  auto phase2 = net.run_rounds(5);
  EXPECT_TRUE(phase2.quiesced);
}

// ---------------------------------------------------------------------------
// Satellite regression: init_programs reseeds the per-node RNG streams.
// ---------------------------------------------------------------------------

class RngDrawProgram : public congest::NodeProgram {
 public:
  void on_round(NodeContext& ctx) override {
    draws.push_back(ctx.rng().next_below(1u << 30));
    if (ctx.round() >= 3) ctx.vote_halt();
  }

  std::vector<std::uint64_t> draws;
};

TEST(Lifecycle, InitProgramsReseedsNodeRngs) {
  auto g = graph::make_complete(5);
  Network net(g);
  auto run_once = [&net, &g] {
    net.init_programs(
        [](NodeId) { return std::make_unique<RngDrawProgram>(); });
    net.run_rounds(3);
    std::vector<std::vector<std::uint64_t>> all;
    for (NodeId v = 0; v < g.n(); ++v) {
      all.push_back(net.program_as<RngDrawProgram>(v).draws);
    }
    return all;
  };
  const auto first = run_once();
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first[0].size(), 3u);
  // Distinct nodes get distinct streams...
  EXPECT_NE(first[0], first[1]);
  // ...and a rerun on the same Network reproduces run one bit-for-bit
  // (pre-fix, the second run continued the consumed streams).
  EXPECT_EQ(run_once(), first);
}

// ---------------------------------------------------------------------------
// Satellite regression: adjacency sortedness is validated, not assumed.
// ---------------------------------------------------------------------------

TEST(Lifecycle, NeighborsStrictlySortedPredicate) {
  using congest::neighbors_strictly_sorted;
  const std::vector<NodeId> ok{1, 2, 5};
  const std::vector<NodeId> unsorted{1, 3, 2};
  const std::vector<NodeId> duplicate{1, 1};
  const std::vector<NodeId> empty;
  EXPECT_TRUE(neighbors_strictly_sorted(ok));
  EXPECT_TRUE(neighbors_strictly_sorted(empty));
  EXPECT_FALSE(neighbors_strictly_sorted(unsorted));
  EXPECT_FALSE(neighbors_strictly_sorted(duplicate));
}

// ---------------------------------------------------------------------------
// Fault plan: accounting and determinism.
// ---------------------------------------------------------------------------

TEST(FaultPlan, DisabledPlanIsBitIdenticalToDefault) {
  auto g = random_graph(30, 6, 5);
  auto run = [&g](NetworkConfig cfg) {
    congest::TraceRecorder rec;
    auto out = algos::build_bfs_tree(g, 0, rec.arm(cfg));
    return std::tuple{rec.events(), out.stats, out.status};
  };
  NetworkConfig zeroed;
  zeroed.fault.seed = 999;  // seed alone must not matter: the plan is off
  const auto base = run(NetworkConfig{});
  const auto sameness = run(zeroed);
  EXPECT_EQ(std::get<0>(sameness), std::get<0>(base));
  EXPECT_EQ(std::get<1>(sameness).messages, std::get<1>(base).messages);
  EXPECT_EQ(std::get<1>(sameness).bits, std::get<1>(base).bits);
  EXPECT_EQ(std::get<1>(base).messages_dropped, 0u);
  EXPECT_EQ(std::get<1>(base).messages_corrupted, 0u);
  EXPECT_EQ(std::get<1>(base).crashed_node_rounds, 0u);
  EXPECT_EQ(std::get<2>(base), algos::PhaseStatus::kQuiesced);
}

TEST(FaultPlan, DroppedPlusDeliveredIsConserved) {
  auto g = graph::make_complete(6);
  auto run = [&g](double drop) {
    NetworkConfig cfg;
    cfg.fault.drop_probability = drop;
    cfg.fault.seed = 42;
    Network net(g, cfg);
    net.init_programs(
        [](NodeId) { return std::make_unique<ChatterProgram>(5); });
    return net.run_rounds(6);
  };
  const auto clean = run(0.0);
  EXPECT_EQ(clean.messages_dropped, 0u);
  const auto faulty = run(0.4);
  EXPECT_GT(faulty.messages_dropped, 0u);
  // Chatter sends regardless of its inbox, so the queue contents are
  // identical in both runs and every queued message is either delivered
  // or counted as dropped.
  EXPECT_EQ(faulty.messages + faulty.messages_dropped, clean.messages);
  // Same plan, same run: the decisions are a pure function of the seed.
  const auto again = run(0.4);
  EXPECT_EQ(again.messages, faulty.messages);
  EXPECT_EQ(again.messages_dropped, faulty.messages_dropped);
}

// Receiver-side audit for the corruption test: every delivered message
// must keep its layout (2 fields of widths 6 and 7) — corruption flips a
// bit *inside* a field, it never breaks framing.
class LayoutAuditProgram : public congest::NodeProgram {
 public:
  void on_start(NodeContext& ctx) override { send(ctx); }

  void on_round(NodeContext& ctx) override {
    for (const auto& in : ctx.inbox()) {
      ++received;
      if (in.msg.num_fields() != 2 || in.msg.field_bits(0) != 6 ||
          in.msg.field_bits(1) != 7 || in.msg.field(0) >= (1u << 6) ||
          in.msg.field(1) >= (1u << 7)) {
        malformed = true;
      }
      if (in.msg.field(0) != 9 || in.msg.field(1) != 42) ++altered;
    }
    if (ctx.round() <= 5) send(ctx);
    ctx.vote_halt();
  }

  std::uint64_t received = 0;
  std::uint64_t altered = 0;
  bool malformed = false;

 private:
  void send(NodeContext& ctx) {
    ctx.broadcast(Message().push(9, 6).push(42, 7));
  }
};

TEST(FaultPlan, CorruptionFlipsBitsButKeepsMessagesWellFormed) {
  auto g = graph::make_complete(4);
  NetworkConfig cfg;
  cfg.fault.corrupt_probability = 1.0;  // flip one bit of every delivery
  cfg.fault.seed = 7;
  Network net(g, cfg);
  net.init_programs(
      [](NodeId) { return std::make_unique<LayoutAuditProgram>(); });
  auto stats = net.run_rounds(6);
  EXPECT_GT(stats.messages, 0u);
  EXPECT_EQ(stats.messages_corrupted, stats.messages);
  std::uint64_t received = 0, altered = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto& p = net.program_as<LayoutAuditProgram>(v);
    EXPECT_FALSE(p.malformed) << "node " << v;
    received += p.received;
    altered += p.altered;
  }
  EXPECT_EQ(received, stats.messages);
  // One flipped bit always changes exactly one field value.
  EXPECT_EQ(altered, stats.messages);
}

TEST(FaultPlan, CrashWindowAccountingIsExact) {
  auto g = graph::make_complete(3);
  NetworkConfig cfg;
  cfg.fault.crashes = {CrashWindow{1, 2, 5}};  // node 1 down rounds 2-4
  Network net(g, cfg);
  net.init_programs(
      [](NodeId) { return std::make_unique<ChatterProgram>(5); });
  auto stats = net.run_rounds(6);
  EXPECT_EQ(stats.crashed_node_rounds, 3u);
  // Round 2 drops node 1's two queued sends plus the two sends addressed
  // to it; rounds 3-4 drop only the two inbound each (a crashed node
  // queues nothing).
  EXPECT_EQ(stats.messages_dropped, 8u);
}

TEST(CrashIndex, MatchesFaultPlanCrashedOnEveryNodeRound) {
  // The O(1)-per-check index the Network uses in the delivery hot loop
  // must agree with the linear-scan reference on every (node, round) pair:
  // overlapping windows, repeat windows for one node, never-recovering
  // windows, and nodes with no window at all.
  const std::uint32_t n = 12;
  congest::FaultPlan plan;
  plan.crashes = {
      CrashWindow{3, 2, 5},   CrashWindow{3, 8, 10},  // two windows, one node
      CrashWindow{5, 1, 0},                           // never recovers
      CrashWindow{7, 4, 6},   CrashWindow{7, 5, 9},   // overlapping
      CrashWindow{11, 30, 31},
  };
  congest::CrashIndex index(plan, n);
  for (std::uint32_t round = 1; round <= 40; ++round) {
    index.refresh(round);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(index.down(v), plan.crashed(v, round))
          << "node " << v << " round " << round;
    }
  }
}

TEST(CrashIndex, EmptyPlanNeverReportsDown) {
  congest::CrashIndex index(congest::FaultPlan{}, 8);
  index.refresh(1);
  for (NodeId v = 0; v < 8; ++v) EXPECT_FALSE(index.down(v));
}

TEST(FaultPlan, ShardedEngineAgreesUnderActiveFaultPlan) {
  // Fault decisions are stateless hashes of (seed, round, from, to), so
  // they cannot depend on which process rolls them — but only if every
  // worker refreshes the crash index over ALL nodes and receiver-side drop
  // checks see crashed foreign senders. This test pins that: identical
  // fault counters and phase outcomes, single-process vs every W.
  auto g = random_graph(30, 5, 31);
  NetworkConfig cfg;
  cfg.fault.crashes = {CrashWindow{2, 2, 6}, CrashWindow{9, 1, 0},
                       CrashWindow{17, 3, 4}};
  cfg.fault.drop_probability = 0.08;
  cfg.fault.corrupt_probability = 0.05;
  cfg.fault.seed = 13;

  congest::RunStats seq_stats;
  {
    Network net(g, cfg);
    net.init_programs(
        [](NodeId) { return std::make_unique<ChatterProgram>(8); });
    seq_stats = net.run_rounds(10);
  }
  // BFS under the same plan: phase status and (degraded) tree must match.
  const auto seq_bfs = algos::build_bfs_tree(g, 0, cfg, 40);

  for (const std::uint32_t w : {1u, 2u, 3u, 8u}) {
    congest::shard::ShardConfig scfg;
    scfg.shards = w;
    scfg.net = cfg;
    congest::shard::ShardedNetwork net(g, scfg);
    net.init_programs(
        [](NodeId) { return std::make_unique<ChatterProgram>(8); });
    const auto st = net.run_rounds(10);
    EXPECT_EQ(st.messages, seq_stats.messages) << "W=" << w;
    EXPECT_EQ(st.bits, seq_stats.bits) << "W=" << w;
    EXPECT_EQ(st.messages_dropped, seq_stats.messages_dropped) << "W=" << w;
    EXPECT_EQ(st.messages_corrupted, seq_stats.messages_corrupted)
        << "W=" << w;
    EXPECT_EQ(st.crashed_node_rounds, seq_stats.crashed_node_rounds)
        << "W=" << w;
    EXPECT_EQ(st.quiesced, seq_stats.quiesced) << "W=" << w;

    const auto bfs = algos::build_bfs_tree_on(net, 0, 40);
    EXPECT_EQ(static_cast<int>(bfs.status),
              static_cast<int>(seq_bfs.status))
        << "W=" << w;
    EXPECT_EQ(bfs.tree.parent, seq_bfs.tree.parent) << "W=" << w;
    EXPECT_EQ(bfs.tree.depth, seq_bfs.tree.depth) << "W=" << w;
    EXPECT_EQ(bfs.stats.rounds, seq_bfs.stats.rounds) << "W=" << w;
    EXPECT_EQ(bfs.stats.messages_dropped, seq_bfs.stats.messages_dropped)
        << "W=" << w;
    EXPECT_EQ(bfs.stats.messages_corrupted, seq_bfs.stats.messages_corrupted)
        << "W=" << w;
    EXPECT_EQ(bfs.stats.crashed_node_rounds,
              seq_bfs.stats.crashed_node_rounds)
        << "W=" << w;
  }
}

/// How EchoFold puts its message on every port.
enum class EmitMode {
  kPerPort,          ///< one send per port
  kBroadcast,        ///< one broadcast
  kBroadcastExcept,  ///< a broadcast leaving out one port, then a send on it
};

/// Each round, sends (id, fold of everything heard, round) on every port —
/// in one of the EmitModes — and records its inbox. What it hears feeds
/// what it sends, so a delivery that differs between the modes changes the
/// rest of the execution.
class EchoFold : public congest::NodeProgram {
 public:
  explicit EchoFold(EmitMode mode) : mode_(mode) {}

  void on_start(NodeContext& ctx) override { emit(ctx); }

  void on_round(NodeContext& ctx) override {
    for (const auto& in : ctx.inbox()) {
      heard.push_back({ctx.round(), in.port, in.msg});
      for (std::size_t i = 0; i < in.msg.num_fields(); ++i) {
        fold_ = (fold_ * 31 + in.msg.field(i)) & 0xfff;
      }
    }
    if (ctx.round() < 8) emit(ctx);
  }

  struct Heard {
    std::uint32_t round;
    std::uint32_t port;
    Message msg;
    bool operator==(const Heard&) const = default;
  };
  std::vector<Heard> heard;

 private:
  void emit(NodeContext& ctx) const {
    const Message m = Message()
                          .push(ctx.id(), ctx.id_bits())
                          .push(fold_, 12)
                          .push(ctx.round(), 8);
    switch (mode_) {
      case EmitMode::kPerPort:
        for (std::uint32_t p = 0; p < ctx.degree(); ++p) ctx.send(p, m);
        break;
      case EmitMode::kBroadcast:
        ctx.broadcast(m);
        break;
      case EmitMode::kBroadcastExcept:
        // The left-out port moves with id and round, so it is sometimes
        // the first, the last and a middle port.
        if (ctx.degree() > 0) {
          const std::uint32_t odd = (ctx.id() + ctx.round()) % ctx.degree();
          ctx.broadcast(m, odd);
          ctx.send(odd, m);
        }
        break;
    }
  }

  EmitMode mode_;
  std::uint64_t fold_ = 0;
};

struct Observed {
  std::uint32_t round;
  NodeId from;
  NodeId to;
  Message msg;
  bool operator==(const Observed&) const = default;
};

struct EchoRun {
  std::vector<Observed> events;
  std::vector<std::vector<EchoFold::Heard>> inboxes;
  congest::RunStats stats;
};

EchoRun run_echo(const Graph& g, NetworkConfig cfg, EmitMode mode) {
  EchoRun run;
  cfg.observer = std::make_shared<congest::CallbackObserver>(
      [&run](NodeId from, NodeId to, const Message& msg, std::uint32_t r) {
        run.events.push_back({r, from, to, msg});
      });
  Network net(g, cfg);
  net.init_programs(
      [mode](NodeId) { return std::make_unique<EchoFold>(mode); });
  run.stats = net.run_rounds(9);
  for (NodeId v = 0; v < g.n(); ++v) {
    run.inboxes.push_back(net.program_as<EchoFold>(v).heard);
  }
  return run;
}

TEST(FaultPlan, SharedBroadcastPayloadNeverLeaksAPrivateChange) {
  // A broadcast stores one payload that every port refers to; corruption
  // and truncation must act on a private copy per delivery. So a broadcast,
  // a broadcast leaving out one port plus a send on that port, and a send
  // on every port must give the same execution under every plan and
  // policy: same observed events, same inboxes, same stats.
  auto g = random_graph(24, 4, 17);
  NetworkConfig clean;
  clean.bandwidth_bits = 32;  // the 3-field message is 25 bits at n = 24
  struct Case {
    const char* name;
    NetworkConfig cfg;
  };
  std::vector<Case> cases;
  cases.push_back({"drops", clean});
  cases.back().cfg.fault.drop_probability = 0.2;
  cases.back().cfg.fault.seed = 3;
  cases.push_back({"corrupt", clean});
  cases.back().cfg.fault.corrupt_probability = 0.3;
  cases.back().cfg.fault.seed = 5;
  cases.push_back({"truncate", clean});
  cases.back().cfg.bandwidth_bits = 16;
  cases.back().cfg.policy = congest::BandwidthPolicy::kTruncate;
  cases.push_back({"truncate+corrupt", cases.back().cfg});
  cases.back().cfg.fault.corrupt_probability = 0.3;
  cases.back().cfg.fault.seed = 7;
  cases.push_back({"record", clean});
  cases.back().cfg.bandwidth_bits = 16;
  cases.back().cfg.policy = congest::BandwidthPolicy::kRecord;

  for (const auto& c : cases) {
    const EchoRun ports = run_echo(g, c.cfg, EmitMode::kPerPort);
    for (const EmitMode mode :
         {EmitMode::kBroadcast, EmitMode::kBroadcastExcept}) {
      const EchoRun bcast = run_echo(g, c.cfg, mode);
      const std::string name =
          std::string(c.name) +
          (mode == EmitMode::kBroadcast ? " broadcast" : " except+send");
      ASSERT_FALSE(bcast.events.empty()) << name;
      EXPECT_TRUE(bcast.events == ports.events) << name;
      EXPECT_TRUE(bcast.inboxes == ports.inboxes) << name;
      EXPECT_EQ(bcast.stats.messages, ports.stats.messages) << name;
      EXPECT_EQ(bcast.stats.bits, ports.stats.bits) << name;
      EXPECT_EQ(bcast.stats.max_edge_bits, ports.stats.max_edge_bits) << name;
      EXPECT_EQ(bcast.stats.violations, ports.stats.violations) << name;
      EXPECT_EQ(bcast.stats.messages_dropped, ports.stats.messages_dropped)
          << name;
      EXPECT_EQ(bcast.stats.messages_corrupted,
                ports.stats.messages_corrupted)
          << name;
      EXPECT_EQ(bcast.stats.rounds, ports.stats.rounds) << name;
    }
  }

  // The corrupt case really splits broadcasts: some (round, sender) group
  // has both a corrupted and a clean receiver, and exactly the deliveries
  // the plan corrupts differ from what the sender sent.
  const NetworkConfig& corrupt = cases[1].cfg;
  const EchoRun run = run_echo(g, corrupt, EmitMode::kBroadcast);
  EXPECT_GT(run.stats.messages_corrupted, 0u);
  EXPECT_LT(run.stats.messages_corrupted, run.stats.messages);
  // One clean payload per (round, sender): every receiver the plan leaves
  // alone got exactly what the sender broadcast.
  std::map<std::pair<std::uint32_t, NodeId>, Message> sent;
  for (const auto& e : run.events) {
    if (corrupt.fault.corrupts(e.round, e.from, e.to)) continue;
    EXPECT_EQ(e.msg.field(0), e.from);
    EXPECT_EQ(e.msg.field(2), (e.round - 1) & 0xff);
    const auto [it, fresh] = sent.emplace(std::pair{e.round, e.from}, e.msg);
    if (!fresh) {
      EXPECT_TRUE(it->second == e.msg);
    }
  }
  bool some_split = false;
  for (const auto& e : run.events) {
    if (!corrupt.fault.corrupts(e.round, e.from, e.to)) continue;
    const auto it = sent.find({e.round, e.from});
    if (it == sent.end()) continue;
    some_split = true;
    EXPECT_FALSE(it->second == e.msg);
  }
  EXPECT_TRUE(some_split);
}

TEST(FaultPlan, ForAttemptDecorrelatesButKeepsAttemptZero) {
  congest::FaultPlan plan;
  plan.drop_probability = 0.2;
  plan.seed = 5;
  EXPECT_EQ(plan.for_attempt(0).seed, plan.seed);
  EXPECT_NE(plan.for_attempt(1).seed, plan.seed);
  EXPECT_NE(plan.for_attempt(2).seed, plan.for_attempt(1).seed);
  EXPECT_EQ(plan.for_attempt(1).drop_probability, plan.drop_probability);
}

TEST(FaultPlan, InvalidPlansFailLoudlyAtConstruction) {
  auto g = graph::make_path(3);
  NetworkConfig bad_prob;
  bad_prob.fault.drop_probability = 1.5;
  EXPECT_THROW(Network(g, bad_prob), InvalidArgumentError);
  NetworkConfig bad_node;
  bad_node.fault.crashes = {CrashWindow{7, 1, 0}};
  EXPECT_THROW(Network(g, bad_node), InvalidArgumentError);
  NetworkConfig bad_window;
  bad_window.fault.crashes = {CrashWindow{0, 3, 2}};
  EXPECT_THROW(Network(g, bad_window), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// BandwidthPolicy::kTruncate.
// ---------------------------------------------------------------------------

TEST(Truncate, MessageTruncatedKeepsLeadingFields) {
  const auto msg = Message().push(3, 5).push(200, 8).push(1, 4);
  // Whole message fits: unchanged.
  EXPECT_EQ(msg.truncated(17), msg);
  // First field whole, second narrowed to 3 bits (low bits of 200 = 0).
  const auto cut = msg.truncated(8);
  EXPECT_EQ(cut.num_fields(), 2u);
  EXPECT_EQ(cut.size_bits(), 8u);
  EXPECT_EQ(cut.field(0), 3u);
  EXPECT_EQ(cut.field_bits(1), 3u);
  EXPECT_EQ(cut.field(1), 200u & 0x7u);
  // Cut inside the first field.
  EXPECT_EQ(msg.truncated(2).num_fields(), 1u);
  EXPECT_EQ(msg.truncated(2).field(0), 3u & 0x3u);
  // Nothing fits.
  EXPECT_EQ(msg.truncated(0).num_fields(), 0u);
}

class OversizedSender : public congest::NodeProgram {
 public:
  void on_round(NodeContext& ctx) override {
    if (ctx.id() == 0 && ctx.round() == 1) {
      ctx.broadcast(Message().push(3, 5).push(200, 8));  // 13 bits
    }
    if (ctx.round() >= 2) {
      for (const auto& in : ctx.inbox()) inbox.push_back(in.msg);
      ctx.vote_halt();
    }
  }

  std::vector<Message> inbox;
};

TEST(Truncate, PolicyClipsInsteadOfThrowing) {
  auto g = graph::make_path(2);
  NetworkConfig cfg;
  cfg.bandwidth_bits = 8;
  cfg.policy = congest::BandwidthPolicy::kTruncate;
  Network net(g, cfg);
  net.init_programs([](NodeId) { return std::make_unique<OversizedSender>(); });
  auto stats = net.run_until_quiescent(5);
  EXPECT_TRUE(stats.quiesced);
  EXPECT_EQ(stats.violations, 1u);
  EXPECT_EQ(stats.max_edge_bits, 8u);  // stats count the clipped bits
  const auto& receiver = net.program_as<OversizedSender>(1);
  ASSERT_EQ(receiver.inbox.size(), 1u);
  EXPECT_EQ(receiver.inbox[0].size_bits(), 8u);
  EXPECT_EQ(receiver.inbox[0].field(0), 3u);

  NetworkConfig strict = cfg;
  strict.policy = congest::BandwidthPolicy::kEnforce;
  Network net2(g, strict);
  net2.init_programs(
      [](NodeId) { return std::make_unique<OversizedSender>(); });
  EXPECT_THROW(net2.run_until_quiescent(5), BandwidthViolationError);
}

// ---------------------------------------------------------------------------
// Graceful degradation of the algorithm layer.
// ---------------------------------------------------------------------------

TEST(GracefulDegradation, BfsUnderDropsReportsInsteadOfAborting) {
  auto g = random_graph(40, 7, 3);
  NetworkConfig cfg;
  cfg.fault.drop_probability = 0.05;
  cfg.fault.seed = 11;
  algos::BfsOutcome out;
  EXPECT_NO_THROW(out = algos::build_bfs_tree(g, 0, cfg));
  // Any status is acceptable — what matters is that faults never abort.
  // A clean-status tree must at least span the graph (a dropped
  // activation can delay a node, so depths are >= the true distances and
  // the height can exceed ecc(0), but never undercut it).
  if (out.status == algos::PhaseStatus::kQuiesced) {
    for (NodeId v = 1; v < g.n(); ++v) {
      EXPECT_NE(out.tree.parent[v], graph::kInvalidNode) << "node " << v;
    }
    EXPECT_GE(out.tree.height, graph::eccentricity(g, 0));
  }

  auto retried = algos::build_bfs_tree_with_retry(g, 0, cfg);
  EXPECT_GE(retried.attempts, 1u);
  EXPECT_LE(retried.attempts, 3u);
  EXPECT_GE(retried.stats.rounds, out.stats.rounds);
}

TEST(GracefulDegradation, RetryWrapperIsIdentityOnCleanRuns) {
  auto g = random_graph(25, 5, 9);
  auto plain = algos::build_bfs_tree(g, 2);
  auto retried = algos::build_bfs_tree_with_retry(g, 2);
  EXPECT_EQ(retried.attempts, 1u);
  EXPECT_EQ(retried.status, algos::PhaseStatus::kQuiesced);
  EXPECT_EQ(retried.tree.parent, plain.tree.parent);
  EXPECT_EQ(retried.stats.rounds, plain.stats.rounds);
}

TEST(GracefulDegradation, PermanentCrashSurfacesAsNonQuiesced) {
  auto g = graph::make_path(6);
  NetworkConfig cfg;
  cfg.fault.crashes = {CrashWindow{5, 1, 0}};  // the far end never speaks
  auto out = algos::build_bfs_tree(g, 0, cfg);
  EXPECT_NE(out.status, algos::PhaseStatus::kQuiesced);
  // The reachable prefix is still built.
  EXPECT_EQ(out.tree.parent[1], 0u);
}

TEST(GracefulDegradation, GirthCensusCarriesStatus) {
  auto g = graph::make_torus(4, 4);
  auto clean = algos::classical_girth_census(g);
  EXPECT_EQ(clean.status, algos::PhaseStatus::kQuiesced);
  EXPECT_EQ(clean.girth, 4u);

  NetworkConfig cfg;
  cfg.fault.drop_probability = 0.2;
  cfg.fault.seed = 13;
  algos::GirthOutcome noisy;
  EXPECT_NO_THROW(noisy = algos::classical_girth_census(g, cfg));
}

TEST(GracefulDegradation, OptimizerSurfacesSubroutineFailure) {
  core::OptimizationProblem prob;
  prob.domain_size = 8;
  prob.epsilon = 0.5;
  prob.evaluate = [](std::size_t x) -> std::int64_t {
    if (x == 3) throw BandwidthViolationError("simulated branch blowup");
    return static_cast<std::int64_t>(x);
  };
  Rng rng(1);
  core::OptimizationReport rep;
  EXPECT_NO_THROW(rep = core::distributed_quantum_optimize(prob, rng));
  EXPECT_TRUE(rep.subroutine_failed);
  EXPECT_NE(rep.failure_reason.find("blowup"), std::string::npos);

  core::SearchProblem sp;
  sp.domain_size = 8;
  sp.epsilon = 0.5;
  sp.marked = [](std::size_t) -> bool {
    throw InternalError("predicate died");
  };
  core::SearchReport srep;
  EXPECT_NO_THROW(srep = core::distributed_quantum_search(sp, rng));
  EXPECT_TRUE(srep.subroutine_failed);
  EXPECT_FALSE(srep.found);

  // Precondition violations are caller bugs and still throw.
  core::OptimizationProblem bad;
  EXPECT_THROW(core::distributed_quantum_optimize(bad, rng),
               InvalidArgumentError);
}

// The plan of `qcongest <cmd> diam:60:6:3 --seed=S --fault-drop=0.005
// --fault-seed=S`.
core::QuantumConfig drop_plan(std::uint64_t seed) {
  core::QuantumConfig cfg;
  cfg.seed = seed;
  cfg.net.fault.drop_probability = 0.005;
  cfg.net.fault.seed = seed;
  return cfg;
}

TEST(GracefulDegradation, FailedQuantumPhaseChargesItsSpanNoRounds) {
  // Under this plan a Figure 2 branch disagrees with the reference, so the
  // phase fails and reports total_rounds = 0; its span must not charge
  // 0 - t_init (which wraps to ~2^64).
  const Graph g = graph::make_from_spec("diam:60:6:3");
  metrics::MetricsRegistry reg;
  metrics::set_global(&reg);
  const auto rep = core::quantum_diameter_exact(g, drop_plan(1));
  metrics::set_global(nullptr);
  ASSERT_TRUE(rep.subroutine_failed);
  bool found = false;
  for (const auto& span : reg.spans()) {
    if (span.name != "core.quantum_phase") continue;
    found = true;
    EXPECT_EQ(span.rounds, 0u);
  }
  EXPECT_TRUE(found);
}

TEST(GracefulDegradation, BrokenPreliminariesReportSubroutineFailure) {
  // Plan 2 makes the election miss the maximum id; plan 3 cuts BFS(leader)
  // short so that it measures d = 0, which must neither reach the
  // optimizer's epsilon precondition nor let decide answer from it.
  const Graph g = graph::make_from_spec("diam:60:6:3");
  for (const std::uint64_t seed : {2u, 3u}) {
    const core::QuantumConfig cfg = drop_plan(seed);
    core::QuantumDiameterReport dia;
    EXPECT_NO_THROW(dia = core::quantum_diameter_exact(g, cfg)) << seed;
    EXPECT_TRUE(dia.subroutine_failed) << seed;
    EXPECT_FALSE(dia.failure_reason.empty()) << seed;
    core::RadiusReport rad;
    EXPECT_NO_THROW(rad = core::quantum_radius(g, cfg)) << seed;
    EXPECT_TRUE(rad.subroutine_failed) << seed;
    core::DecisionReport dec;
    EXPECT_NO_THROW(dec = core::quantum_diameter_decide(g, 5, cfg)) << seed;
    EXPECT_TRUE(dec.subroutine_failed) << seed;
    EXPECT_EQ(dec.failure_reason, dia.failure_reason) << seed;
    if (seed == 3) {
      EXPECT_NE(dia.failure_reason.find("ecc(leader) = 0"), std::string::npos)
          << dia.failure_reason;
    }
  }
  // Plan 1 leaves a ragged distance table in Theorem 4's preparation.
  core::QuantumApproxReport approx;
  EXPECT_NO_THROW(approx = core::quantum_diameter_approx(g, drop_plan(1)));
  EXPECT_TRUE(approx.subroutine_failed);
  EXPECT_FALSE(approx.failure_reason.empty());
}

TEST(GracefulDegradation, ApproxRSizeMismatchUnderDropsIsASubroutineFailure) {
  // Under this plan Theorem 4's preparation counts |R| differently from the
  // mask it builds. A fault plan causes that, so it is a failed report,
  // not a thrown internal error.
  const Graph er = graph::make_from_spec("er:200:0.03");
  core::QuantumConfig cfg = drop_plan(3);
  cfg.oracle = core::OracleMode::kDirect;
  core::QuantumApproxReport rep;
  ASSERT_NO_THROW(rep = core::quantum_diameter_approx(er, cfg));
  EXPECT_TRUE(rep.subroutine_failed);
  EXPECT_NE(rep.failure_reason.find("R size mismatch"), std::string::npos)
      << rep.failure_reason;
  // No seed of the parity harness's drop plans throws on either graph.
  for (const Graph& g : {er, graph::make_from_spec("torus:8:8")}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      cfg = drop_plan(seed);
      cfg.oracle = core::OracleMode::kDirect;
      EXPECT_NO_THROW(core::quantum_diameter_approx(g, cfg))
          << "n=" << g.n() << " seed=" << seed;
    }
  }
}

TEST(GracefulDegradation, SetupCostIsTheValueFreeBroadcast) {
  // t_setup is the rounds of the charged broadcast of d (of d_sub in
  // approx). The reference is the uncharged measurement it replaced: a
  // broadcast of the value 0 with the same width down the same tree,
  // under the same fault plan.
  const std::vector<Graph> corpus = {
      graph::make_from_spec("diam:128:8"), graph::make_from_spec("er:200:0.03"),
      graph::make_from_spec("torus:8:8"), graph::make_from_spec("diam:60:6:3"),
      graph::make_path(16), graph::make_grid(4, 5), random_graph(40, 6, 3)};
  std::vector<std::pair<std::string, NetworkConfig>> plans(4);
  plans[0].first = "fault-free";
  plans[1].first = "drop";
  plans[1].second.fault.drop_probability = 0.005;
  plans[2].first = "corrupt";
  plans[2].second.fault.corrupt_probability = 0.01;
  plans[3].first = "crash";
  plans[3].second.fault.crashes = {CrashWindow{1, 3, 7}};
  std::map<std::string, int> checked;
  for (const Graph& g : corpus) {
    const std::uint32_t id_bits = qc::bit_width_for(g.n()) + 1;
    // The tree and window approx announces over, from a fault-free run: a
    // crash breaks every preparation, so only this pins approx under one.
    const auto leader = algos::elect_leader(g).leader;
    const auto prep = algos::hprw_preparation(
        g, core::quantum_diameter_approx(g).s_used, leader,
        algos::compute_eccentricity(g, leader).tree);
    ASSERT_FALSE(prep.aborted);
    const std::uint32_t d_sub =
        graph::induced_subtree(prep.tree_w.to_bfs_tree(), prep.r_mask).height;
    const std::uint32_t steps = 2 * std::max(1u, d_sub);
    const std::uint32_t h = prep.tree_w.height;
    const std::uint64_t t_eval =
        algos::EvaluationProgram::token_phase_rounds(steps) +
        (2 * steps + 2 * h + 2) + h + 1;
    for (auto& [plan, net] : plans) {
      for (std::uint64_t seed : {1u, 2u, 3u}) {
        net.fault.seed = seed;
        const std::string at = plan + " seed " + std::to_string(seed) +
                               " n " + std::to_string(g.n());
        const std::uint32_t approx_setup =
            algos::broadcast_from_root(g, prep.tree_w, 0, id_bits, net)
                .stats.rounds;
        EXPECT_EQ(algos::broadcast_from_root(g, prep.tree_w, d_sub, id_bits,
                                             net)
                      .stats.rounds,
                  approx_setup)
            << at;
        core::QuantumConfig cfg;
        cfg.net = net;
        cfg.seed = seed;
        cfg.oracle = core::OracleMode::kDirect;
        // approx reports no t_setup; when it ran its phase over the same
        // R, quantum_rounds pin t_setup through the Theorem 7 identity
        // (the phase charges no Initialization).
        core::QuantumApproxReport rep;
        try {
          rep = core::quantum_diameter_approx(g, cfg);
        } catch (const qc::Error&) {
          // A fault plan can also break approx's own R bookkeeping
          // ("R size mismatch"), which it throws instead of reporting.
          rep.subroutine_failed = true;
        }
        if (!rep.subroutine_failed && !rep.aborted && rep.w == prep.w &&
            rep.quantum_rounds > 0) {
          const auto& c = rep.costs;
          EXPECT_EQ(rep.quantum_rounds,
                    c.setup_invocations * approx_setup +
                        c.grover_iterations * (4 * t_eval + 2 * approx_setup) +
                        c.candidate_evaluations * t_eval)
              << at;
          ++checked[plan + " approx"];
        }

        core::detail::InitPhase init;
        try {
          init = core::detail::run_initialization(g, net);
        } catch (const qc::Error&) {
          continue;
        }
        const std::uint32_t reference =
            algos::broadcast_from_root(g, init.tree, 0, id_bits, net)
                .stats.rounds;
        EXPECT_EQ(init.t_setup, reference) << at;
        EXPECT_EQ(core::quantum_diameter_exact(g, cfg).t_setup, reference)
            << at;
        EXPECT_EQ(core::quantum_radius(g, cfg).t_setup, reference) << at;
        EXPECT_EQ(core::quantum_diameter_decide(g, init.d + 1, cfg).t_setup,
                  reference)
            << at;
        ++checked[plan];
      }
    }
  }
  for (const auto& [plan, net] : plans) {
    EXPECT_GT(checked[plan], 0) << plan;
    if (plan != "crash") {
      EXPECT_GT(checked[plan + " approx"], 0) << plan;
    }
  }
}

}  // namespace
}  // namespace qc
