// The shard backend, bottom up: assignment invariants (full cover,
// balance, boundary-arc symmetry), codec round-trips for every frame shape
// (messages up to Message::kMaxFields fields) with the same adversarial rejection
// discipline as the serve protocol (every strict prefix, every overlong
// buffer, unknown version/op, nonzero reserved, length bombs), and the
// coordinator end to end: bit-identical parity against the in-process
// engine up to one node per worker, observer-stream order, cooperative
// stop, worker-crash containment, process/fd hygiene across lifecycles,
// and worst-case boundary traffic that fills every mesh ring exactly.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algos/bfs_tree.hpp"
#include "algos/leader_election.hpp"
#include "congest/network.hpp"
#include "congest/observer.hpp"
#include "congest/shard/codec.hpp"
#include "congest/shard/partition.hpp"
#include "congest/shard/sharded_network.hpp"
#include "congest/shard/shm_ring.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "serve/protocol.hpp"
#include "util/alloc_probe.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

// Workers forked from this binary inherit the counting allocator, so
// ShardConfig::verify_zero_alloc_from_round is live in these tests.
QC_INSTALL_ALLOC_PROBE();

namespace qc::congest::shard {
namespace {

using graph::Graph;
using graph::NodeId;

// ---------------------------------------------------------------------------
// Assignment
// ---------------------------------------------------------------------------

TEST(ShardPartition, ContiguousCoversEveryNodeExactlyOnceAndBalances) {
  for (const std::uint32_t w : {1u, 2u, 3u, 8u, 97u}) {
    const ShardAssignment a = make_assignment(97, w);
    ASSERT_EQ(a.shards, w);
    ASSERT_EQ(a.bounds.size(), w + 1);
    // Ranges cover [0, n) in order, back to back, each non-empty and
    // balanced within one node.
    EXPECT_EQ(a.begin(0), 0u);
    EXPECT_EQ(a.end(w - 1), 97u);
    for (std::uint32_t s = 0; s < w; ++s) {
      if (s > 0) {
        EXPECT_EQ(a.begin(s), a.end(s - 1));
      }
      EXPECT_GE(a.owned_count(s), 1u) << "empty shard " << s;
      EXPECT_LE(a.owned_count(s), (97 + w - 1) / w);
      EXPECT_GE(a.owned_count(s), 97 / w);
    }
    for (NodeId v = 0; v < 97; ++v) {
      const std::uint32_t s = a.owner(v);
      ASSERT_LT(s, w);
      EXPECT_TRUE(a.owns(s, v)) << "node " << v;
    }
  }
}

TEST(ShardPartition, RejectsDegenerateShardCounts) {
  EXPECT_THROW(make_assignment(5, 0), Error);
  EXPECT_THROW(make_assignment(5, 6), Error);
}

TEST(ShardPartition, BoundaryArcsAreSymmetricAndOrdered) {
  Rng rng(11);
  const Graph g = graph::make_connected_er(60, 0.1, rng);
  // W = n puts every node in its own shard, so every arc is a boundary arc.
  for (const std::uint32_t w : {2u, 3u, 8u, g.n()}) {
    const ShardAssignment a = make_assignment(g.n(), w);
    std::uint64_t arcs = 0;
    for (std::uint32_t s = 0; s < w; ++s) {
      const auto out = boundary_arcs(g, a, s);
      arcs += out.size();
      // (u ascending, port ascending) order; port order on a sorted
      // adjacency is neighbor-id order.
      for (std::size_t i = 1; i < out.size(); ++i) {
        EXPECT_TRUE(out[i - 1].first < out[i].first ||
                    (out[i - 1].first == out[i].first &&
                     out[i - 1].second < out[i].second));
      }
      for (const auto& [u, v] : out) {
        EXPECT_EQ(a.owner(u), s);
        EXPECT_NE(a.owner(v), s);
        // The reverse arc is a boundary arc of the peer shard.
        const auto back = boundary_arcs(g, a, a.owner(v));
        EXPECT_NE(std::find(back.begin(), back.end(),
                            std::make_pair(v, u)),
                  back.end());
      }
    }
    // Every cut edge contributes exactly two directed arcs.
    std::uint64_t cut2 = 0;
    for (NodeId u = 0; u < g.n(); ++u) {
      for (const NodeId v : g.neighbors(u)) {
        if (a.owner(u) != a.owner(v)) ++cut2;
      }
    }
    EXPECT_EQ(arcs, cut2);
    if (w == g.n()) {
      EXPECT_EQ(arcs, 2 * g.m());
    }
  }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

Message inline_msg() { return Message().push(5, 4).push(0x1FF, 17); }

Message full_msg() {
  Message m;
  for (std::uint64_t i = 0; i < Message::kMaxFields; ++i) m.push(i, 7);
  return m;
}

Message extreme_msg() {
  // Width-1 zero and the full 64-bit range — both ends of the grammar.
  return Message().push(0, 1).push(~0ULL, 64);
}

void expect_eq(const Message& a, const Message& b) {
  ASSERT_EQ(a.num_fields(), b.num_fields());
  for (std::size_t i = 0; i < a.num_fields(); ++i) {
    EXPECT_EQ(a.field(i), b.field(i));
    EXPECT_EQ(a.field_bits(i), b.field_bits(i));
  }
}

// Round frames encode into a shm slot; the tests use a slot-sized buffer.
std::vector<std::uint8_t> round_begin_bytes(const RoundBeginFrame& f) {
  std::vector<std::uint8_t> buf(kControlChannelBytes);
  buf.resize(encode_round_begin_to(buf, f));
  return buf;
}

std::vector<std::uint8_t> round_end_bytes(const RoundEndFrame& f) {
  std::vector<std::uint8_t> buf(kControlChannelBytes);
  buf.resize(encode_round_end_to(buf, f));
  return buf;
}

RoundBeginFrame decode_round_begin(std::span<const std::uint8_t> p) {
  RoundBeginFrame f;
  decode_round_begin_into(p, f);
  return f;
}

RoundEndFrame decode_round_end(std::span<const std::uint8_t> p) {
  RoundEndFrame f;
  decode_round_end_into(p, f);
  return f;
}

RunStats sample_stats() {
  RunStats s;
  s.rounds = 3;
  s.messages = 1234567;
  s.bits = 87654321;
  s.max_edge_bits = 96;
  s.violations = 2;
  s.quiesced = true;
  s.max_node_memory_bits = 4096;
  s.messages_dropped = 17;
  s.messages_corrupted = 5;
  s.crashed_node_rounds = 41;
  return s;
}

StartDoneFrame sample_start_done() {
  StartDoneFrame f;
  f.inflight = -12;  // per-worker counters may legitimately go negative
  f.halted = 99;
  f.wakes = 3;
  return f;
}

RoundEndFrame sample_round_end() {
  RoundEndFrame f;
  f.round = 42;
  f.inflight = -3;
  f.halted = 10;
  f.boundary_bytes = 0x1234567890ULL;
  f.boundary_msgs = 777;
  f.stats = sample_stats();
  f.events.push_back(DeliveryEvent{3, 9, inline_msg()});
  f.events.push_back(DeliveryEvent{9, 3, full_msg()});
  return f;
}

TEST(ShardCodec, EmptyFramesRoundTrip) {
  for (const ShardOp op :
       {ShardOp::kStart, ShardOp::kHarvest, ShardOp::kShutdown}) {
    const auto p = encode_empty(op);
    EXPECT_EQ(decode_op(p), op);
    EXPECT_NO_THROW(decode_empty(p, op));
    // The right payload for the wrong op must not pass.
    EXPECT_THROW(decode_empty(p, ShardOp::kRoundBegin),
                 serve::ProtocolError);
  }
}

TEST(ShardCodec, StartDoneRoundTrips) {
  const StartDoneFrame f = sample_start_done();
  const StartDoneFrame d = decode_start_done(encode_start_done(f));
  EXPECT_EQ(d.inflight, f.inflight);
  EXPECT_EQ(d.halted, f.halted);
  EXPECT_EQ(d.wakes, f.wakes);
}

TEST(ShardCodec, RoundBeginRoundTrips) {
  for (const bool audit : {false, true}) {
    RoundBeginFrame f;
    f.round = 7;
    f.memory_audit = audit;
    const RoundBeginFrame d = decode_round_begin(round_begin_bytes(f));
    EXPECT_EQ(d.round, f.round);
    EXPECT_EQ(d.memory_audit, audit);
  }
}

TEST(ShardCodec, WakeCountsAndSweepFlagRoundTrip) {
  StartDoneFrame s = sample_start_done();
  s.wakes = -4;  // like inflight, a per-worker count may go negative
  EXPECT_EQ(decode_start_done(encode_start_done(s)).wakes, -4);
  RoundEndFrame e = sample_round_end();
  e.wakes = 37;
  EXPECT_EQ(decode_round_end(round_end_bytes(e)).wakes, 37);
  for (const bool audit : {false, true}) {
    for (const bool sweep : {false, true}) {
      RoundBeginFrame f;
      f.round = 9;
      f.memory_audit = audit;
      f.memory_sweep_all = sweep;
      const RoundBeginFrame d = decode_round_begin(round_begin_bytes(f));
      EXPECT_EQ(d.memory_audit, audit);
      EXPECT_EQ(d.memory_sweep_all, sweep);
    }
  }
  // Flag bits beyond the two defined ones are rejected.
  RoundBeginFrame f;
  f.round = 1;
  auto p = round_begin_bytes(f);
  p[4 + 4] = 4;  // header, u32 round, then the flags byte
  EXPECT_THROW(decode_round_begin(p), serve::ProtocolError);
}

TEST(ShardCodec, RoundEndRoundTripsIncludingStats) {
  const RoundEndFrame f = sample_round_end();
  const RoundEndFrame d = decode_round_end(round_end_bytes(f));
  EXPECT_EQ(d.round, f.round);
  EXPECT_EQ(d.inflight, f.inflight);
  EXPECT_EQ(d.halted, f.halted);
  EXPECT_EQ(d.boundary_bytes, f.boundary_bytes);
  EXPECT_EQ(d.boundary_msgs, f.boundary_msgs);
  const RunStats &a = d.stats, &b = f.stats;
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.max_edge_bits, b.max_edge_bits);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.quiesced, b.quiesced);
  EXPECT_EQ(a.max_node_memory_bits, b.max_node_memory_bits);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_corrupted, b.messages_corrupted);
  EXPECT_EQ(a.crashed_node_rounds, b.crashed_node_rounds);
  ASSERT_EQ(d.events.size(), 2u);
  EXPECT_EQ(d.events[0].from, 3u);
  EXPECT_EQ(d.events[0].to, 9u);
  expect_eq(d.events[1].msg, f.events[1].msg);
}

TEST(ShardCodec, HarvestDoneRoundTrips) {
  HarvestDoneFrame f;
  f.states.push_back(inline_msg());
  f.states.push_back(full_msg());
  f.states.push_back(Message());  // a zero-field state is legal
  const HarvestDoneFrame d = decode_harvest_done(encode_harvest_done(f));
  ASSERT_EQ(d.states.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) expect_eq(d.states[i], f.states[i]);
}

TEST(ShardCodec, ErrorRoundTripsAndTruncates) {
  EXPECT_EQ(decode_error(encode_error("boom")), "boom");
  const std::string huge(serve::kMaxMessageBytes + 100, 'x');
  const std::string back = decode_error(encode_error(huge));
  EXPECT_EQ(back.size(), serve::kMaxMessageBytes);
}

// The serve discipline, applied to every shard frame shape: every strict
// prefix of a valid payload and every extension of one must fail loudly.
TEST(ShardCodec, EveryStrictPrefixAndOverlongBufferIsRejected) {
  struct Shape {
    std::vector<std::uint8_t> payload;
    std::function<void(std::span<const std::uint8_t>)> decode;
  };
  const std::vector<Shape> shapes = {
      {encode_empty(ShardOp::kStart),
       [](auto p) { decode_empty(p, ShardOp::kStart); }},
      {encode_start_done(sample_start_done()),
       [](auto p) { decode_start_done(p); }},
      {[] {
         RoundBeginFrame f;
         f.round = 3;
         f.memory_audit = true;
         return round_begin_bytes(f);
       }(),
       [](auto p) { decode_round_begin(p); }},
      {round_end_bytes(sample_round_end()),
       [](auto p) { decode_round_end(p); }},
      {[] {
         HarvestDoneFrame f;
         f.states.push_back(extreme_msg());
         return encode_harvest_done(f);
       }(),
       [](auto p) { decode_harvest_done(p); }},
      {encode_error("why"), [](auto p) { decode_error(p); }},
  };
  for (const Shape& s : shapes) {
    for (std::size_t len = 0; len < s.payload.size(); ++len) {
      EXPECT_THROW(
          s.decode(std::span(s.payload.data(), len)),
          serve::ProtocolError)
          << "prefix of length " << len << " of " << s.payload.size()
          << " decoded";
    }
    auto longer = s.payload;
    longer.push_back(0);
    EXPECT_THROW(s.decode(longer), serve::ProtocolError)
        << "trailing byte accepted";
  }
}

TEST(ShardCodec, RejectsBadVersionReservedAndOp) {
  auto p = encode_start_done(sample_start_done());
  auto bad = p;
  bad[0] = kShardProtocolVersion + 1;
  EXPECT_THROW(decode_op(bad), serve::ProtocolError);
  bad = p;
  bad[1] = kMaxShardOp + 1;  // unknown op byte
  EXPECT_THROW(decode_op(bad), serve::ProtocolError);
  bad = p;
  bad[2] = 1;  // reserved must be zero
  EXPECT_THROW(decode_op(bad), serve::ProtocolError);
  bad = p;
  bad[3] = 0x80;
  EXPECT_THROW(decode_op(bad), serve::ProtocolError);
  // Right grammar, wrong op for the decoder invoked.
  EXPECT_THROW(decode_round_end(p), serve::ProtocolError);
}

TEST(ShardCodec, RejectsLengthBombsAndBadFieldWidths) {
  // harvest_done claiming 2^32-1 states in a 10-byte body.
  std::vector<std::uint8_t> bomb = {kShardProtocolVersion,
                                    static_cast<std::uint8_t>(
                                        ShardOp::kHarvestDone),
                                    0, 0, 0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_THROW(decode_harvest_done(bomb), serve::ProtocolError);

  // A message field with width 0, width 65, and a value exceeding its
  // declared width — all three must be rejected, not silently masked.
  const auto make_state = [](std::uint8_t width, std::uint64_t value) {
    std::vector<std::uint8_t> p = {kShardProtocolVersion,
                                   static_cast<std::uint8_t>(
                                       ShardOp::kHarvestDone),
                                   0, 0,
                                   1, 0, 0, 0,   // one state
                                   1, 0, 0, 0};  // one field
    p.push_back(width);
    for (int i = 0; i < 8; ++i) {
      p.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
    return p;
  };
  EXPECT_NO_THROW(decode_harvest_done(make_state(3, 7)));
  EXPECT_THROW(decode_harvest_done(make_state(0, 0)), serve::ProtocolError);
  EXPECT_THROW(decode_harvest_done(make_state(65, 0)), serve::ProtocolError);
  EXPECT_THROW(decode_harvest_done(make_state(3, 8)), serve::ProtocolError);

}

/// Rewrites a payload whose LAST element is a full-capacity message so
/// that message claims one field more than Message::kMaxFields, with the
/// extra (width, value) pair appended — a well-formed buffer in every
/// respect except the field count.
std::vector<std::uint8_t> overfill_last_message(std::vector<std::uint8_t> p) {
  const std::size_t at = p.size() - 9 * Message::kMaxFields - 4;
  const auto count = static_cast<std::uint32_t>(Message::kMaxFields + 1);
  for (int i = 0; i < 4; ++i) {
    p[at + i] = static_cast<std::uint8_t>(count >> (8 * i));
  }
  p.push_back(1);                 // width 1
  p.insert(p.end(), 8, 0);        // value 0
  return p;
}

TEST(ShardCodec, MessagesOverTheFieldCapAreRejectedInEveryShape) {
  // harvest_done and round_end (its event list), as socket/slot frames.
  HarvestDoneFrame h;
  h.states.push_back(full_msg());
  const auto harvest = encode_harvest_done(h);
  EXPECT_NO_THROW(decode_harvest_done(harvest));
  EXPECT_THROW(decode_harvest_done(overfill_last_message(harvest)),
               serve::ProtocolError);

  RoundEndFrame e = sample_round_end();  // its last event is full_msg()
  const auto end = round_end_bytes(e);
  EXPECT_NO_THROW(decode_round_end(end));
  const auto bad_end = overfill_last_message(end);
  EXPECT_THROW(decode_round_end(bad_end), serve::ProtocolError);

  // A mesh batch whose last entry carries a full-capacity message.
  std::vector<std::uint8_t> buf(256);
  MeshWriter w(buf, 4);
  w.add(1, inline_msg());
  w.add(2, full_msg());
  buf.resize(w.finish());
  const auto drain = [](std::span<const std::uint8_t> p) {
    MeshReader r(p, 4);
    std::uint32_t slot = 0;
    Message m;
    while (r.next(slot, m)) {
    }
  };
  EXPECT_NO_THROW(drain(buf));
  const auto bad_mesh = overfill_last_message(buf);
  EXPECT_THROW(drain(bad_mesh), serve::ProtocolError);

  // The same bytes read out of shared memory: a round_end published on a
  // channel and a mesh batch published on a ring.
  alignas(64) std::uint8_t chan_mem[1024] = {};
  ShmChannel ch(chan_mem, sizeof(chan_mem) - ShmChannel::kHeaderBytes);
  std::copy(bad_end.begin(), bad_end.end(), ch.buffer().begin());
  ch.publish_frame(bad_end.size());
  ASSERT_EQ(ch.poll(), ShmSignal::kFrame);
  EXPECT_THROW(decode_round_end(ch.frame()), serve::ProtocolError);

  std::vector<std::uint8_t> ring_mem(MeshRing::bytes_needed(bad_mesh.size()));
  MeshRing ring(ring_mem.data(), bad_mesh.size());
  std::copy(bad_mesh.begin(), bad_mesh.end(), ring.produce_buffer(4).begin());
  ring.publish(4, bad_mesh.size());
  EXPECT_THROW(drain(ring.consume(4)), serve::ProtocolError);
}

// ---------------------------------------------------------------------------
// End to end
// ---------------------------------------------------------------------------

int open_fd_count() {
  int count = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(ShardedNetwork, LeaderElectionMatchesInProcessEngineBitForBit) {
  Rng rng(3);
  const Graph g = graph::make_connected_er(40, 0.12, rng);
  const auto expect = algos::elect_leader(g);
  for (const std::uint32_t w : {1u, 2u, 3u, 8u}) {
    ShardConfig cfg;
    cfg.shards = w;
    ShardedNetwork net(g, cfg);
    const auto got = algos::elect_leader_on(net);
    EXPECT_EQ(got.leader, expect.leader) << "W=" << w;
    EXPECT_EQ(got.stats.rounds, expect.stats.rounds) << "W=" << w;
    EXPECT_EQ(got.stats.messages, expect.stats.messages) << "W=" << w;
    EXPECT_EQ(got.stats.bits, expect.stats.bits) << "W=" << w;
    EXPECT_EQ(got.stats.max_edge_bits, expect.stats.max_edge_bits);
    EXPECT_EQ(got.stats.max_node_memory_bits,
              expect.stats.max_node_memory_bits);
    EXPECT_EQ(got.stats.quiesced, expect.stats.quiesced);
    net.shutdown();
  }
}

/// On-demand program whose work comes from wake-ups and mail: node v wakes
/// every 2 + v % 3 rounds until round `until`, mails one port per wake-up,
/// folds its inbox into a digest, and halts once no wake-up is left. A
/// wake-up deferred by a crash still acts (round >= next_).
class Beacon final : public NodeProgram {
 public:
  explicit Beacon(std::uint32_t until) : until_(until) {}
  bool on_demand() const override { return true; }
  void on_start(NodeContext& ctx) override {
    next_ = 1 + ctx.id() % 4;
    ctx.wake_at(next_);
  }
  void on_round(NodeContext& ctx) override {
    ++runs_;
    for (const auto& in : ctx.inbox()) {
      digest_ = digest_ * 31 + in.msg.field(0) + in.port;
    }
    if (ctx.round() >= next_) {
      ctx.send(ctx.round() % ctx.degree(),
               Message().push(ctx.round() & 0xff, 8));
      next_ = ctx.round() + 2 + ctx.id() % 3;
    }
    if (next_ <= until_) {
      ctx.wake_at(next_);
    } else {
      ctx.vote_halt();
    }
  }
  std::uint64_t memory_bits() const override { return 8 + runs_; }
  void serialize_state(Message& out) const override {
    out.push(runs_, 32).push(digest_, 64).push(next_, 32);
  }
  void restore_state(const Message& in) override {
    runs_ = static_cast<std::uint32_t>(in.field(0));
    digest_ = in.field(1);
    next_ = static_cast<std::uint32_t>(in.field(2));
  }
  std::uint32_t runs_ = 0;
  std::uint64_t digest_ = 0;
  std::uint32_t next_ = 0;

 private:
  std::uint32_t until_;
};

void expect_same_stats(const RunStats& a, const RunStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.rounds, b.rounds) << where;
  EXPECT_EQ(a.messages, b.messages) << where;
  EXPECT_EQ(a.bits, b.bits) << where;
  EXPECT_EQ(a.max_edge_bits, b.max_edge_bits) << where;
  EXPECT_EQ(a.violations, b.violations) << where;
  EXPECT_EQ(a.quiesced, b.quiesced) << where;
  EXPECT_EQ(a.max_node_memory_bits, b.max_node_memory_bits) << where;
  EXPECT_EQ(a.messages_dropped, b.messages_dropped) << where;
  EXPECT_EQ(a.messages_corrupted, b.messages_corrupted) << where;
  EXPECT_EQ(a.crashed_node_rounds, b.crashed_node_rounds) << where;
}

TEST(ShardedNetwork, OnDemandProgramUnderCrashPlanIsBitIdentical) {
  // Wake-ups live in the worker replicas; the coordinator must sum their
  // pending counts for quiescence, defer a crashed node's wake-up exactly
  // like the in-process engine, and audit memory the same way (all nodes
  // in a phase's first round, afterwards the nodes that ran).
  Rng rng(17);
  const Graph g = graph::make_connected_er(30, 0.15, rng);
  using Event = std::tuple<NodeId, NodeId, std::uint32_t, std::uint64_t>;
  const auto record = [](std::vector<Event>& into) {
    return std::make_shared<CallbackObserver>(
        [&into](NodeId from, NodeId to, const Message& m,
                std::uint32_t round) {
          into.emplace_back(from, to, round, m.field(0));
        });
  };
  NetworkConfig base;
  base.fault.crashes = {CrashWindow{0, 1, 4}, CrashWindow{7, 3, 9},
                        CrashWindow{12, 6, 7}, CrashWindow{21, 2, 0}};
  base.fault.drop_probability = 0.05;
  base.fault.seed = 3;
  const auto make = [](NodeId) { return std::make_unique<Beacon>(25); };

  std::vector<Event> seq_events;
  NetworkConfig seq_cfg = base;
  seq_cfg.observer = record(seq_events);
  Network seq(g, seq_cfg);
  seq.init_programs(make);
  const RunStats seq_first = seq.run_rounds(7);
  const RunStats seq_rest = seq.run_until_quiescent(200);
  // Node 21 crashes for good before it halts, so the run cannot quiesce;
  // a run that ended on a pending wake-up would stop early instead.
  EXPECT_FALSE(seq_rest.quiesced);
  EXPECT_EQ(seq_rest.rounds, 200u);
  ASSERT_FALSE(seq_events.empty());

  for (const std::uint32_t w : {1u, 2u, 3u}) {
    const std::string where = "W=" + std::to_string(w);
    std::vector<Event> events;
    ShardConfig cfg;
    cfg.shards = w;
    cfg.net = base;
    cfg.net.observer = record(events);
    ShardedNetwork net(g, cfg);
    net.init_programs(make);
    expect_same_stats(net.run_rounds(7), seq_first, where);
    expect_same_stats(net.run_until_quiescent(200), seq_rest, where);
    EXPECT_EQ(events, seq_events) << where;
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto& a = net.program_as<Beacon>(v);
      const auto& b = seq.program_as<Beacon>(v);
      EXPECT_EQ(a.runs_, b.runs_) << where << " node " << v;
      EXPECT_EQ(a.digest_, b.digest_) << where << " node " << v;
    }
  }
}

TEST(ShardedNetwork, PendingWakeUpsKeepTheShardedRunFromQuiescing) {
  Rng rng(23);
  const Graph g = graph::make_connected_er(20, 0.2, rng);
  const auto make = [](NodeId) { return std::make_unique<Beacon>(30); };
  Network seq(g);
  seq.init_programs(make);
  const RunStats expect = seq.run_until_quiescent(500);
  ASSERT_TRUE(expect.quiesced);
  // Quiescence waits for the last wake-up, not just the last message.
  EXPECT_GE(expect.rounds, 30u);
  for (const std::uint32_t w : {2u, 3u}) {
    ShardConfig cfg;
    cfg.shards = w;
    ShardedNetwork net(g, cfg);
    net.init_programs(make);
    expect_same_stats(net.run_until_quiescent(500), expect,
                      "W=" + std::to_string(w));
  }
}

TEST(ShardedNetwork, ObserverStreamMergesIntoCanonicalOrder) {
  Rng rng(9);
  const Graph g = graph::make_connected_er(24, 0.2, rng);
  using Event = std::tuple<NodeId, NodeId, std::uint32_t, std::uint64_t>;
  const auto record = [](std::vector<Event>& into) {
    return std::make_shared<CallbackObserver>(
        [&into](NodeId from, NodeId to, const Message& m,
                std::uint32_t round) {
          into.emplace_back(from, to, round,
                            m.num_fields() > 0 ? m.field(0) : 0);
        });
  };
  std::vector<Event> sequential;
  {
    NetworkConfig nc;
    nc.observer = record(sequential);
    Network net(g, nc);
    algos::elect_leader_on(net);
  }
  ASSERT_FALSE(sequential.empty());
  // At W = n every worker owns one node and every delivery crosses a
  // shard, so the concatenated batches must interleave nothing.
  for (const std::uint32_t w : {3u, g.n()}) {
    std::vector<Event> sharded;
    ShardConfig cfg;
    cfg.shards = w;
    cfg.net.observer = record(sharded);
    ShardedNetwork net(g, cfg);
    algos::elect_leader_on(net);
    EXPECT_EQ(sharded, sequential) << "W=" << w;
  }
}

TEST(ShardedNetwork, HarvestRestoresFullBfsTreeState) {
  Rng rng(13);
  const Graph g = graph::make_connected_er(50, 0.1, rng);
  const auto expect = algos::build_bfs_tree(g, 4);
  ShardConfig cfg;
  cfg.shards = 4;
  ShardedNetwork net(g, cfg);
  const auto got = algos::build_bfs_tree_on(net, 4);
  EXPECT_EQ(got.tree.parent, expect.tree.parent);
  EXPECT_EQ(got.tree.depth, expect.tree.depth);
  EXPECT_EQ(got.tree.children, expect.tree.children);
  EXPECT_EQ(got.tree.height, expect.tree.height);
  EXPECT_EQ(static_cast<int>(got.status), static_cast<int>(expect.status));
}

TEST(ShardedNetwork, RejectsResultReadsWithoutStateTransfer) {
  // A program type without serialize_state/restore_state must fail loudly
  // at harvest time, not return garbage.
  class Opaque final : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override { ctx.vote_halt(); }
  };
  const Graph g = graph::make_path(6);
  ShardConfig cfg;
  cfg.shards = 2;
  ShardedNetwork net(g, cfg);
  net.init_programs([](NodeId) { return std::make_unique<Opaque>(); });
  net.run_until_quiescent(4);
  EXPECT_THROW(net.program(0), Error);
}

TEST(ShardedNetwork, CooperativeStopInterruptsBetweenRounds) {
  const Graph g = graph::make_cycle(16);
  std::atomic<bool> stop{true};  // raised before the run even starts
  ShardConfig cfg;
  cfg.shards = 2;
  cfg.stop = &stop;
  ShardedNetwork net(g, cfg);
  net.init_programs(
      [](NodeId) { return std::make_unique<algos::FloodMaxProgram>(); });
  const RunStats st = net.run_rounds(100);
  EXPECT_EQ(st.rounds, 0u);
  EXPECT_TRUE(net.interrupted());
  net.shutdown();  // clean teardown after an interrupt
}

TEST(ShardedNetwork, WorkerCrashMidRunFailsCleanlyWithoutHanging) {
  Rng rng(21);
  const Graph g = graph::make_connected_er(30, 0.15, rng);
  ShardConfig cfg;
  cfg.shards = 3;
  ShardedNetwork net(g, cfg);
  net.init_programs(
      [](NodeId) { return std::make_unique<algos::FloodMaxProgram>(); });
  const auto pids = net.worker_pids();
  ASSERT_EQ(pids.size(), 3u);
  ASSERT_EQ(::kill(pids[1], SIGKILL), 0);
  EXPECT_THROW(net.run_until_quiescent(100), Error);
  // Every worker (killed or force-torn-down) is reaped, not zombified.
  for (const pid_t pid : pids) {
    EXPECT_EQ(::waitpid(pid, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
  }
  // The coordinator stays broken but safe: further runs refuse, a fresh
  // init_programs recovers.
  EXPECT_THROW(net.run_rounds(1), Error);
  net.init_programs(
      [](NodeId) { return std::make_unique<algos::FloodMaxProgram>(); });
  EXPECT_NO_THROW(net.run_until_quiescent(100));
}

TEST(ShardedNetwork, LifecyclesLeakNeitherFdsNorProcesses) {
  Rng rng(17);
  const Graph g = graph::make_connected_er(25, 0.15, rng);
  // Warm up lazily initialized process state before counting fds.
  {
    ShardConfig cfg;
    cfg.shards = 2;
    ShardedNetwork net(g, cfg);
    algos::elect_leader_on(net);
  }
  const int before = open_fd_count();
  std::vector<pid_t> all_pids;
  for (int i = 0; i < 4; ++i) {
    ShardConfig cfg;
    cfg.shards = 3;
    ShardedNetwork net(g, cfg);
    algos::elect_leader_on(net);
    const auto pids = net.worker_pids();
    all_pids.insert(all_pids.end(), pids.begin(), pids.end());
    if (i % 2 == 0) net.shutdown();  // explicit and destructor paths
  }
  EXPECT_EQ(open_fd_count(), before);
  for (const pid_t pid : all_pids) {
    EXPECT_EQ(::waitpid(pid, nullptr, WNOHANG), -1) << "unreaped " << pid;
  }
}

TEST(ShardedNetwork, ShutdownIsIdempotentAndRefusesLateReads) {
  const Graph g = graph::make_path(8);
  ShardConfig cfg;
  cfg.shards = 2;
  ShardedNetwork net(g, cfg);
  net.init_programs(
      [](NodeId) { return std::make_unique<algos::FloodMaxProgram>(); });
  net.run_until_quiescent(20);
  net.shutdown();
  EXPECT_NO_THROW(net.shutdown());
  // Results were never harvested and the workers are gone.
  EXPECT_THROW(net.program(0), Error);
}

// ---------------------------------------------------------------------------
// Shared-memory transport
// ---------------------------------------------------------------------------

TEST(ShmTransport, ChannelPingPongCarriesFramesAndSignals) {
  constexpr std::size_t kCap = 64;
  std::vector<std::uint8_t> mem(ShmChannel::bytes_needed(kCap), 0);
  // Producer and consumer construct independent views over the same bytes,
  // exactly as coordinator and worker do over the inherited arena.
  ShmChannel prod(mem.data(), kCap);
  ShmChannel cons(mem.data(), kCap);
  ASSERT_TRUE(prod.idle());
  EXPECT_EQ(cons.poll(), ShmSignal::kNone);
  EXPECT_EQ(cons.wait(1), ShmSignal::kNone);  // bounded timeout, no hang

  const std::vector<std::uint8_t> payload = encode_empty(ShardOp::kStart);
  const auto slot = prod.buffer();
  ASSERT_GE(slot.size(), payload.size());
  std::copy(payload.begin(), payload.end(), slot.begin());
  prod.publish_frame(payload.size());
  EXPECT_FALSE(prod.idle());
  ASSERT_EQ(cons.poll(), ShmSignal::kFrame);
  const auto frame = cons.frame();
  ASSERT_EQ(frame.size(), payload.size());
  EXPECT_TRUE(std::equal(frame.begin(), frame.end(), payload.begin()));
  EXPECT_NO_THROW(decode_empty(frame, ShardOp::kStart));
  cons.release();
  ASSERT_TRUE(prod.idle());

  // Socket hints ride the same doorbell; a busy channel refuses the
  // best-effort publish instead of clobbering the pending publication.
  prod.publish_signal(ShmSignal::kSocket);
  EXPECT_FALSE(prod.try_publish_signal(ShmSignal::kSocket));
  EXPECT_EQ(cons.wait(10000), ShmSignal::kSocket);
  cons.release();
  EXPECT_TRUE(prod.try_publish_signal(ShmSignal::kSocket));
  cons.release();

  // Oversized publications are a caller bug, refused up front.
  EXPECT_THROW(prod.publish_frame(kCap + 1), Error);
}

TEST(ShmTransport, ChannelRejectsTornLengthAndUnknownKind) {
  // Shared memory is untrusted input: a torn or hostile peer can scribble
  // the header fields between publish and consume. These pokes write the
  // raw header words (doorbell, consumed, len, kind — four u32 in order).
  constexpr std::size_t kCap = 32;
  std::vector<std::uint8_t> mem(ShmChannel::bytes_needed(kCap), 0);
  ShmChannel prod(mem.data(), kCap);
  ShmChannel cons(mem.data(), kCap);

  prod.publish_frame(4);
  const std::uint32_t bad_len = kCap + 1;
  std::memcpy(mem.data() + 8, &bad_len, sizeof(bad_len));
  ASSERT_EQ(cons.poll(), ShmSignal::kFrame);
  EXPECT_THROW(cons.frame(), serve::ProtocolError);
  cons.release();

  prod.publish_signal(ShmSignal::kSocket);
  const std::uint32_t bad_kind = 77;
  std::memcpy(mem.data() + 12, &bad_kind, sizeof(bad_kind));
  EXPECT_THROW(cons.poll(), serve::ProtocolError);
}

TEST(ShmTransport, MeshRingRoundTripsAndRejectsStaleOrTornSlots) {
  constexpr std::size_t kCap = 48;
  std::vector<std::uint8_t> mem(MeshRing::bytes_needed(kCap), 0);
  MeshRing prod(mem.data(), kCap);
  MeshRing cons(mem.data(), kCap);

  auto buf = prod.produce_buffer(3);
  ASSERT_EQ(buf.size(), kCap);
  buf[0] = 0xAB;
  prod.publish(3, 1);
  const auto got = cons.consume(3);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 0xAB);

  // Round 5 maps to the same slot (5 & 1 == 3 & 1) but finds round 3's
  // stamp: stale contents are a protocol error, never silently replayed.
  EXPECT_THROW(cons.consume(5), serve::ProtocolError);
  // The other slot was never published: its zero stamp fails round 2.
  EXPECT_THROW(cons.consume(2), serve::ProtocolError);

  // A torn writer's oversized length is rejected even with a valid stamp.
  // Slot 3 & 1 == 1 starts at kSlotHeaderBytes + kCap; its header is
  // (round u32 | len u32).
  const std::size_t slot1 = MeshRing::kSlotHeaderBytes + kCap;
  const std::uint32_t bad_len = kCap + 1;
  std::memcpy(mem.data() + slot1 + 4, &bad_len, sizeof(bad_len));
  EXPECT_THROW(cons.consume(3), serve::ProtocolError);

  // Oversized publications are refused producer-side as a caller bug.
  EXPECT_THROW(prod.publish(4, kCap + 1), Error);
}

TEST(ShmTransport, MeshRingWithOddCapacityKeepsBothSlotHeadersAligned) {
  // Slot 1 follows slot 0's payload; an odd capacity must not leave its
  // header (an atomic stamp and a length) at a misaligned address.
  constexpr std::size_t kCap = 13;
  std::vector<std::uint8_t> mem(MeshRing::bytes_needed(kCap), 0);
  MeshRing prod(mem.data(), kCap);
  MeshRing cons(mem.data(), kCap);
  for (std::uint32_t round = 0; round < 4; ++round) {
    auto buf = prod.produce_buffer(round);
    ASSERT_EQ(buf.size(), kCap);
    // The slot header sits right before the payload.
    const auto hdr = reinterpret_cast<std::uintptr_t>(buf.data()) -
                     MeshRing::kSlotHeaderBytes;
    EXPECT_EQ(hdr % alignof(std::atomic<std::uint32_t>), 0u)
        << "round " << round;
    ASSERT_LE(hdr + MeshRing::kSlotHeaderBytes + kCap,
              reinterpret_cast<std::uintptr_t>(mem.data() + mem.size()));
    std::fill(buf.begin(), buf.end(), static_cast<std::uint8_t>(0xC0 + round));
    prod.publish(round, kCap);
    const auto got = cons.consume(round);
    ASSERT_EQ(got.size(), kCap);
    EXPECT_EQ(got.front(), 0xC0 + round);
    EXPECT_EQ(got.back(), 0xC0 + round);
  }
  // Both slots are live: round 3 sits in slot 1, round 2 in slot 0.
  EXPECT_EQ(cons.consume(2).front(), 0xC2);
  EXPECT_EQ(cons.consume(3).front(), 0xC3);
}

TEST(ShmTransport, PlanLayoutPlacesEverySegmentAlignedAndDisjoint) {
  Rng rng(5);
  const Graph g = graph::make_random_with_diameter(97, 7, rng);
  const ShardAssignment asn = make_assignment(g.n(), 3);
  for (const bool events : {false, true}) {
    const ShmLayout l = plan_layout(g, asn, events);
    std::vector<std::pair<std::size_t, std::size_t>> spans;  // [off, end)
    for (std::uint32_t s = 0; s < l.shards; ++s) {
      spans.emplace_back(l.c2w[s].off,
                         l.c2w[s].off + ShmChannel::bytes_needed(l.c2w[s].cap));
      spans.emplace_back(l.w2c[s].off,
                         l.w2c[s].off + ShmChannel::bytes_needed(l.w2c[s].cap));
      for (std::uint32_t t = 0; t < l.shards; ++t) {
        const auto& seg = l.mesh_seg(s, t);
        if (seg.cap == 0) continue;
        spans.emplace_back(seg.off, seg.off + MeshRing::bytes_needed(seg.cap));
      }
    }
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_EQ(spans[i].first % 64, 0u) << "segment " << i;
      EXPECT_LE(spans[i].second, l.total_bytes);
      if (i + 1 < spans.size()) {
        EXPECT_LE(spans[i].second, spans[i + 1].first);
      }
    }
  }
}

TEST(ShardCodec, MeshBatchRoundTripsThroughWriterAndReader) {
  std::vector<std::uint8_t> buf(512);
  MeshWriter w(buf, 7);
  w.add(3, inline_msg());
  w.add(0, full_msg());
  w.add(123456, extreme_msg());
  std::size_t len = w.finish();
  EXPECT_EQ(w.count(), 3u);

  MeshReader r(std::span<const std::uint8_t>(buf.data(), len), 7);
  EXPECT_EQ(r.count(), 3u);
  std::uint32_t slot = 0;
  Message m;
  ASSERT_TRUE(r.next(slot, m));
  EXPECT_EQ(slot, 3u);
  expect_eq(m, inline_msg());
  ASSERT_TRUE(r.next(slot, m));
  EXPECT_EQ(slot, 0u);
  expect_eq(m, full_msg());
  ASSERT_TRUE(r.next(slot, m));
  EXPECT_EQ(slot, 123456u);
  expect_eq(m, extreme_msg());
  EXPECT_FALSE(r.next(slot, m));

  // An empty batch (mandatory publication for a round with no traffic on
  // the pair) round-trips too.
  MeshWriter we(buf, 8);
  len = we.finish();
  EXPECT_EQ(len, kMeshFrameOverhead);
  MeshReader re(std::span<const std::uint8_t>(buf.data(), len), 8);
  EXPECT_EQ(re.count(), 0u);
  EXPECT_FALSE(re.next(slot, m));
}

TEST(ShardCodec, MeshBatchRejectsWrongRoundTruncationAndTrailingBytes) {
  std::vector<std::uint8_t> buf(512);
  MeshWriter w(buf, 9);
  w.add(1, inline_msg());
  w.add(2, full_msg());
  const std::size_t len = w.finish();
  const std::span<const std::uint8_t> batch(buf.data(), len);

  const auto drain = [](std::span<const std::uint8_t> p,
                        std::uint32_t round) {
    MeshReader r(p, round);
    std::uint32_t slot = 0;
    Message m;
    while (r.next(slot, m)) {
    }
  };
  EXPECT_NO_THROW(drain(batch, 9));
  // A stale or skewed producer stamp is rejected before any entry parses.
  EXPECT_THROW(drain(batch, 8), serve::ProtocolError);
  // The same adversarial discipline as socket frames: every strict prefix
  // and every overlong buffer fails somewhere in the drain.
  for (std::size_t cut = 0; cut < len; ++cut) {
    EXPECT_THROW(drain(batch.first(cut), 9), serve::ProtocolError)
        << "prefix " << cut;
  }
  std::vector<std::uint8_t> longer(buf.begin(),
                                   buf.begin() + static_cast<long>(len));
  longer.push_back(0);
  EXPECT_THROW(drain(longer, 9), serve::ProtocolError);
}

TEST(ShardCodec, MeshBatchBudgetIsExactAndOverflowIsAnInternalError) {
  // A full-capacity 64-bit-wide message takes exactly kMeshBytesPerArc,
  // so a slot sized by plan_layout for a arcs holds the worst round.
  Message widest;
  for (std::size_t i = 0; i < Message::kMaxFields; ++i) widest.push(~0ULL, 64);
  constexpr std::size_t arcs = 3;
  std::vector<std::uint8_t> buf(kMeshFrameOverhead + arcs * kMeshBytesPerArc);
  MeshWriter w(buf, 2);
  for (std::uint32_t a = 0; a < arcs; ++a) w.add(a, widest);
  EXPECT_EQ(w.finish(), buf.size());
  // One entry past the budget is a sizing bug, not a fallback path.
  EXPECT_THROW(w.add(arcs, inline_msg()), InternalError);
  RoundEndFrame f = sample_round_end();
  std::vector<std::uint8_t> tiny(16);
  EXPECT_THROW(encode_round_end_to(tiny, f), InternalError);
}

// ---------------------------------------------------------------------------
// Round barrier and perf counters
// ---------------------------------------------------------------------------

TEST(ShardedNetwork, RoundBeginReachesEveryWorkerBeforeAnyRoundEndWait) {
  // Regression for the serialized barrier: the coordinator used to send
  // round_begin to worker w and block on w's round_end before serving
  // w+1, so one slow worker stalled the fan-out and W workers sleeping
  // D ms each cost W*D per round. With the broadcast-first barrier they
  // sleep concurrently and a round costs ~D.
  class Sleepy final : public NodeProgram {
   public:
    void on_round(NodeContext& ctx) override {
      if (ctx.id() % 6 == 0) ::usleep(30 * 1000);
    }
  };
  const Graph g = graph::make_path(18);
  ShardConfig cfg;
  cfg.shards = 3;  // contiguous: one sleeper (0, 6, 12) per worker
  ShardedNetwork net(g, cfg);
  net.init_programs([](NodeId) { return std::make_unique<Sleepy>(); });

  const auto t0 = std::chrono::steady_clock::now();
  const RunStats st = net.run_rounds(4);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(st.rounds, 4u);
  // Serialized service would take >= 3 workers * 4 rounds * 30 ms = 360 ms;
  // concurrent sleeps take ~120 ms. The bound sits between with margin.
  EXPECT_LT(elapsed.count(), 260) << "barrier appears to serialize workers";
  // The coordinator really waited on the barrier, and said so.
  EXPECT_GE(net.perf().barrier_wait_us, 80u * 1000u);
}

TEST(ShardedNetwork, PerfCountersTrackBoundaryTrafficAndElision) {
  Rng rng(17);
  const Graph g = graph::make_connected_er(30, 0.15, rng);
  // Without an observer, per-delivery events are never encoded; the
  // coordinator counts every delivery it did not have to merge.
  {
    ShardConfig cfg;
    cfg.shards = 3;
    ShardedNetwork net(g, cfg);
    const auto got = algos::elect_leader_on(net);
    const ShardPerfCounters& p = net.perf();
    EXPECT_GT(p.rounds, 0u);
    EXPECT_GT(p.boundary_bytes, 0u);
    EXPECT_GT(p.boundary_messages, 0u);
    EXPECT_EQ(p.events_elided, got.stats.messages);
  }
  // With an observer attached every event ships and merges; none elided.
  {
    ShardConfig cfg;
    cfg.shards = 3;
    std::size_t seen = 0;
    cfg.net.observer = std::make_shared<CallbackObserver>(
        [&seen](NodeId, NodeId, const Message&, std::uint32_t) { ++seen; });
    ShardedNetwork net(g, cfg);
    const auto got = algos::elect_leader_on(net);
    EXPECT_EQ(net.perf().events_elided, 0u);
    EXPECT_EQ(seen, got.stats.messages);
  }
}

TEST(ShardedNetwork, SingleWorkerStillRunsBoundaryFreeAndBitIdentical) {
  // W=1 has no mesh rings and no boundary traffic at all — the degenerate
  // layout must still produce the exact sequential stats.
  Rng rng(23);
  const Graph g = graph::make_connected_er(20, 0.2, rng);
  const auto expect = algos::elect_leader(g);
  ShardConfig cfg;
  cfg.shards = 1;
  ShardedNetwork net(g, cfg);
  const auto got = algos::elect_leader_on(net);
  EXPECT_EQ(got.leader, expect.leader);
  EXPECT_EQ(got.stats.messages, expect.stats.messages);
  EXPECT_EQ(net.perf().boundary_bytes, 0u);
  EXPECT_EQ(net.perf().boundary_messages, 0u);
}

// ---------------------------------------------------------------------------
// Worst-case transport: the ring budget is a bound
// ---------------------------------------------------------------------------

/// Broadcasts a full-capacity message of 64-bit fields every round — the
/// largest payload a Message can put on every arc at once — and folds
/// everything it hears into a digest.
class WidestFlood final : public NodeProgram {
 public:
  void on_start(NodeContext& ctx) override { blast(ctx); }
  void on_round(NodeContext& ctx) override {
    for (const auto& in : ctx.inbox()) {
      for (std::size_t i = 0; i < in.msg.num_fields(); ++i) {
        digest_ = (digest_ * 1099511628211ULL) ^ in.msg.field(i);
      }
      digest_ += in.port;
    }
    blast(ctx);
  }
  void serialize_state(Message& out) const override { out.push(digest_, 64); }
  void restore_state(const Message& in) override { digest_ = in.field(0); }
  std::uint64_t digest_ = 0;

 private:
  static void blast(NodeContext& ctx) {
    Message m;
    for (std::uint64_t i = 0; i < Message::kMaxFields; ++i) {
      m.push(~0ULL - (std::uint64_t{ctx.id()} << 16) - ctx.round() - i, 64);
    }
    ctx.broadcast(m);
  }
};

TEST(ShardedNetwork, WorstCaseBoundaryTrafficFitsTheRingsWithoutAllocating) {
  Rng rng(29);
  const Graph g = graph::make_connected_er(40, 0.2, rng);
  NetworkConfig net_cfg;
  // 7 x 64 bits is far over the model bandwidth: kRecord counts each
  // violation and delivers the message whole.
  net_cfg.policy = BandwidthPolicy::kRecord;
  const auto make = [](NodeId) { return std::make_unique<WidestFlood>(); };
  constexpr std::uint32_t kWarm = 2;
  constexpr std::uint32_t kRounds = 6;

  Network seq(g, net_cfg);
  seq.init_programs(make);
  const RunStats seq_warm = seq.run_rounds(kWarm);
  const RunStats seq_main = seq.run_rounds(kRounds);
  ASSERT_GT(seq_main.violations, 0u);

  ShardConfig cfg;
  cfg.shards = 4;
  cfg.net = net_cfg;
  // Every worker fails the run if a round after kWarm touches the heap.
  cfg.verify_zero_alloc_from_round = kWarm;
  ShardedNetwork net(g, cfg);
  net.init_programs(make);
  expect_same_stats(net.run_rounds(kWarm), seq_warm, "warmup phase");
  const std::uint64_t allocs_before = qc::alloc_probe_count();
  const RunStats main = net.run_rounds(kRounds);
  EXPECT_EQ(qc::alloc_probe_count() - allocs_before, 0u)
      << "the coordinator's round barrier allocated";
  expect_same_stats(main, seq_main, "worst-case phase");
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_EQ(net.program_as<WidestFlood>(v).digest_,
              seq.program_as<WidestFlood>(v).digest_)
        << "node " << v;
  }

  // Every boundary arc carried a widest message in every batch (on_start's
  // and each round's), and every batch filled its mesh segment to the
  // byte: the per-arc budget is met exactly, never exceeded. Boundary
  // messages have no other route, and a round frame on a socket is a
  // protocol error, so this completed run moved nothing over the sockets.
  const ShmLayout layout = plan_layout(g, net.assignment(), false);
  std::uint64_t ring_bytes = 0;
  for (const auto& seg : layout.mesh) ring_bytes += seg.cap;
  std::uint64_t cut = 0;
  for (std::uint32_t s = 0; s < cfg.shards; ++s) {
    cut += boundary_arcs(g, net.assignment(), s).size();
  }
  ASSERT_GT(cut, 0u);
  const std::uint64_t batches = kWarm + kRounds + 1;
  EXPECT_EQ(net.perf().boundary_messages, batches * cut);
  EXPECT_EQ(net.perf().boundary_bytes, batches * ring_bytes);
  net.shutdown();
}

}  // namespace
}  // namespace qc::congest::shard
