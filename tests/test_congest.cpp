#include <gtest/gtest.h>

#include <memory>

#include "congest/message.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"

namespace qc::congest {
namespace {

using graph::NodeId;

TEST(Message, FieldsAndSize) {
  Message m;
  m.push(5, 4).push(1, 1).push(1023, 10);
  EXPECT_EQ(m.num_fields(), 3u);
  EXPECT_EQ(m.field(0), 5u);
  EXPECT_EQ(m.field(2), 1023u);
  EXPECT_EQ(m.size_bits(), 15u);
}

TEST(Message, RejectsOverflowingValue) {
  Message m;
  EXPECT_THROW(m.push(16, 4), InvalidArgumentError);
  EXPECT_THROW(m.push(0, 0), InvalidArgumentError);
  EXPECT_THROW(m.push(0, 65), InvalidArgumentError);
}

TEST(Message, SixtyFourBitField) {
  Message m;
  m.push(~0ULL, 64);
  EXPECT_EQ(m.field(0), ~0ULL);
}

/// Sends its own id to every neighbor each round; records what it hears.
class GossipProgram : public NodeProgram {
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

TEST(Network, DeliversToNeighborsNextRound) {
  auto g = graph::make_path(3);
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<GossipProgram>(); });
  auto stats = net.run_rounds(1);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(net.program_as<GossipProgram>(1).heard,
            (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(net.program_as<GossipProgram>(0).heard,
            (std::vector<NodeId>{1}));
  // 4 directed deliveries: 0->1, 1->0, 1->2, 2->1.
  EXPECT_EQ(stats.messages, 4u);
}

TEST(Network, InboxIsInPortOrder) {
  auto g = graph::make_star(5);  // center 0
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<GossipProgram>(); });
  net.run_rounds(1);
  EXPECT_EQ(net.program_as<GossipProgram>(0).heard,
            (std::vector<NodeId>{1, 2, 3, 4}));
}

class DoubleSendProgram : public NodeProgram {
 public:
  void on_start(NodeContext& ctx) override {
    ctx.send(0, Message().push(1, 1));
    ctx.send(0, Message().push(1, 1));  // must throw
  }
  void on_round(NodeContext& ctx) override { ctx.vote_halt(); }
};

TEST(Network, RejectsTwoMessagesPerPortPerRound) {
  auto g = graph::make_path(2);
  Network net(g);
  EXPECT_THROW(
      {
        net.init_programs(
            [](NodeId) { return std::make_unique<DoubleSendProgram>(); });
        net.run_rounds(1);
      },
      InvalidArgumentError);
}

class FatMessageProgram : public NodeProgram {
 public:
  explicit FatMessageProgram(std::uint32_t bits) : bits_(bits) {}
  void on_start(NodeContext& ctx) override {
    Message m;
    for (std::uint32_t sent = 0; sent < bits_; sent += 32) {
      m.push(0, std::min(32u, bits_ - sent));
    }
    if (ctx.id() == 0) ctx.send(0, m);
  }
  void on_round(NodeContext& ctx) override { ctx.vote_halt(); }

 private:
  std::uint32_t bits_;
};

TEST(Network, EnforcesBandwidth) {
  auto g = graph::make_path(2);
  NetworkConfig cfg;
  cfg.bandwidth_bits = 8;
  Network net(g, cfg);
  net.init_programs(
      [](NodeId) { return std::make_unique<FatMessageProgram>(9); });
  EXPECT_THROW(net.run_rounds(1), BandwidthViolationError);
}

TEST(Network, RecordsViolationsWhenAsked) {
  auto g = graph::make_path(2);
  NetworkConfig cfg;
  cfg.bandwidth_bits = 8;
  cfg.policy = BandwidthPolicy::kRecord;
  Network net(g, cfg);
  net.init_programs(
      [](NodeId) { return std::make_unique<FatMessageProgram>(9); });
  auto stats = net.run_rounds(1);
  EXPECT_EQ(stats.violations, 1u);
  EXPECT_EQ(stats.max_edge_bits, 9u);
}

TEST(Network, ExactBandwidthIsFine) {
  auto g = graph::make_path(2);
  NetworkConfig cfg;
  cfg.bandwidth_bits = 8;
  Network net(g, cfg);
  net.init_programs(
      [](NodeId) { return std::make_unique<FatMessageProgram>(8); });
  auto stats = net.run_rounds(1);
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_EQ(stats.max_edge_bits, 8u);
}

/// A single wave from node 0: each node broadcasts once upon first
/// activation and records its hop count. Used to test multi-round flow,
/// halted-node wakeup and engine equivalence.
class RelayProgram : public NodeProgram {
 public:
  void on_start(NodeContext& ctx) override {
    if (ctx.id() == 0) {
      activated = true;
      ctx.broadcast(Message().push(1, 16));
    }
  }
  void on_round(NodeContext& ctx) override {
    if (!activated) {
      for (const auto& in : ctx.inbox()) {
        activated = true;
        hops_seen = static_cast<std::uint32_t>(in.msg.field(0));
        ctx.broadcast(Message().push(hops_seen + 1, 16));
        break;
      }
    }
    ctx.vote_halt();
  }
  bool activated = false;
  std::uint32_t hops_seen = 0;
};

TEST(Network, QuiescenceAfterWaveDies) {
  auto g = graph::make_path(6);
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<RelayProgram>(); });
  auto stats = net.run_until_quiescent(100);
  EXPECT_TRUE(stats.quiesced);
  EXPECT_EQ(stats.rounds, 6u);  // 5 hops + 1 quiet round to settle halts
  EXPECT_EQ(net.program_as<RelayProgram>(5).hops_seen, 5u);
}

TEST(Network, RunRoundsCountsExactly) {
  auto g = graph::make_cycle(4);
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<GossipProgram>(); });
  auto s1 = net.run_rounds(3);
  EXPECT_EQ(s1.rounds, 3u);
  EXPECT_EQ(net.stats().rounds, 3u);
  auto s2 = net.run_rounds(2);
  EXPECT_EQ(s2.rounds, 2u);
  EXPECT_EQ(net.stats().rounds, 5u);
}

TEST(Network, PerNodeRngIsDeterministic) {
  auto g = graph::make_path(4);
  std::uint64_t first[4], second[4];
  for (auto* arr : {first, second}) {
    NetworkConfig cfg;
    cfg.seed = 123;
    Network net(g, cfg);
    class RngProbe : public NodeProgram {
     public:
      explicit RngProbe(std::uint64_t* out) : out_(out) {}
      void on_round(NodeContext& ctx) override {
        out_[ctx.id()] = ctx.rng()();
        ctx.vote_halt();
      }
      std::uint64_t* out_;
    };
    net.init_programs(
        [arr](NodeId) { return std::make_unique<RngProbe>(arr); });
    net.run_rounds(1);
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(first[i], second[i]);
  EXPECT_NE(first[0], first[1]);
}

TEST(NodeContext, PortLookup) {
  auto g = graph::make_star(4);
  Network net(g);
  class PortProbe : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override {
      if (ctx.id() == 0) {
        EXPECT_EQ(ctx.neighbor(ctx.port_to(2)), 2u);
        EXPECT_THROW(ctx.port_to(0), InvalidArgumentError);
        EXPECT_EQ(ctx.degree(), 3u);
      } else {
        EXPECT_EQ(ctx.degree(), 1u);
        EXPECT_EQ(ctx.neighbor(0), 0u);
      }
      EXPECT_EQ(ctx.n(), 4u);
      ctx.vote_halt();
    }
  };
  net.init_programs([](NodeId) { return std::make_unique<PortProbe>(); });
  net.run_rounds(1);
}

TEST(Network, StatsAccumulateMemoryHighWater) {
  auto g = graph::make_path(3);
  class MemProbe : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override {
      grow += 100;
      ctx.vote_halt();
    }
    std::uint64_t memory_bits() const override { return grow; }
    std::uint64_t grow = 0;
  };
  Network net(g);
  net.init_programs([](NodeId) { return std::make_unique<MemProbe>(); });
  auto stats = net.run_rounds(1);
  EXPECT_EQ(stats.max_node_memory_bits, 100u);
}

}  // namespace
}  // namespace qc::congest
