// The shard backend, bottom up: assignment invariants (full cover,
// balance, boundary-arc symmetry), codec round-trips for every frame shape
// (messages up to Message::kMaxFields fields) with the same adversarial rejection
// discipline as the serve protocol (every strict prefix, every overlong
// buffer, unknown version/op, nonzero reserved, length bombs), and the
// coordinator end to end: bit-identical parity against the in-process
// engine up to one node per worker, observer-stream order, cooperative
// stop, worker-crash containment, process/fd hygiene across lifecycles,
// worst-case boundary traffic that meets the per-arc frame bound
// exactly without allocating, and relayed boundary bytes that outlive a
// harvest between two phases.

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

void expect_eq(const std::vector<BoundaryEntry>& a,
               const std::vector<BoundaryEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].slot, b[i].slot);
    expect_eq(a[i].msg, b[i].msg);
  }
}

// Codec tests run against a three-shard session.
constexpr std::uint32_t kShards = 3;

/// One round's boundary batch for one receiver: every message shape, and
/// a slot far from zero. Its last entry is a full-capacity message.
std::vector<BoundaryEntry> sample_batch() {
  return {{3, inline_msg()}, {123456, extreme_msg()}, {0, full_msg()}};
}

/// A worker's outbound traffic: groups for shards 0 and 2, none for 1.
/// The last entry of the last group is a full-capacity message.
Outbound sample_outbound() {
  Outbound out(kShards);
  out[0] = {{7, extreme_msg()}, {8, inline_msg()}};
  out[2] = {{40, full_msg()}};
  return out;
}

std::vector<std::uint8_t> round_end_bytes(const RoundEndFrame& f,
                                          const Outbound& out = {}) {
  std::vector<std::uint8_t> buf;
  encode_round_end(f, out, buf);
  return buf;
}

std::vector<std::uint8_t> start_done_bytes(const StartDoneFrame& f,
                                           const Outbound& out = {}) {
  std::vector<std::uint8_t> buf;
  encode_start_done(f, out, buf);
  return buf;
}

/// A decoded start_done / round_end. The groups point into the decoded
/// bytes, which must outlive them.
template <class Frame>
struct Decoded {
  Frame f;
  std::vector<BoundaryGroup> groups = std::vector<BoundaryGroup>(kShards);
};

Decoded<RoundEndFrame> decode_round_end(std::span<const std::uint8_t> p) {
  Decoded<RoundEndFrame> d;
  decode_round_end_into(p, d.f, d.groups);
  return d;
}

Decoded<StartDoneFrame> decode_start_done(std::span<const std::uint8_t> p) {
  Decoded<StartDoneFrame> d;
  decode_start_done_into(p, d.f, d.groups);
  return d;
}

/// The round_begin the coordinator relays: the header, then the entry
/// bytes of `groups` in order (one group per source shard).
std::vector<std::uint8_t> relayed_round_begin(
    const RoundBeginFrame& f, std::span<const BoundaryGroup> groups) {
  std::uint32_t count = 0;
  for (const BoundaryGroup& g : groups) count += g.count;
  const RoundBeginHeader header = encode_round_begin(f, count);
  std::vector<std::uint8_t> out(header.begin(), header.end());
  for (const BoundaryGroup& g : groups) {
    out.insert(out.end(), g.entries.begin(), g.entries.end());
  }
  return out;
}

/// A round_begin relaying `in`, sent as one worker's group.
std::vector<std::uint8_t> round_begin_bytes(
    const RoundBeginFrame& f, std::vector<BoundaryEntry> in = {}) {
  Outbound out(kShards);
  out[1] = std::move(in);
  const auto sent = start_done_bytes(StartDoneFrame{}, out);
  return relayed_round_begin(f, decode_start_done(sent).groups);
}

struct DecodedBegin {
  RoundBeginFrame f;
  std::vector<BoundaryEntry> in;
};

DecodedBegin decode_round_begin(std::span<const std::uint8_t> p) {
  DecodedBegin d;
  decode_round_begin_into(p, d.f, d.in);
  return d;
}

/// The entries a receiving worker decodes from one relayed group.
std::vector<BoundaryEntry> entries_of(const BoundaryGroup& g) {
  return decode_round_begin(relayed_round_begin(RoundBeginFrame{}, {&g, 1}))
      .in;
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
  const auto bytes = start_done_bytes(f, sample_outbound());
  const auto d = decode_start_done(bytes);
  EXPECT_EQ(d.f.inflight, f.inflight);
  EXPECT_EQ(d.f.halted, f.halted);
  EXPECT_EQ(d.f.wakes, f.wakes);
  const Outbound want = sample_outbound();
  for (std::uint32_t t = 0; t < kShards; ++t) {
    EXPECT_EQ(d.groups[t].count, want[t].size());
    expect_eq(entries_of(d.groups[t]), want[t]);
  }
}

TEST(ShardCodec, RoundBeginRoundTrips) {
  for (const bool audit : {false, true}) {
    RoundBeginFrame f;
    f.round = 7;
    f.memory_audit = audit;
    const auto batch = sample_batch();
    const DecodedBegin d = decode_round_begin(round_begin_bytes(f, batch));
    EXPECT_EQ(d.f.round, f.round);
    EXPECT_EQ(d.f.memory_audit, audit);
    expect_eq(d.in, batch);
  }
  // A round with no boundary traffic carries an empty batch, and decoding
  // replaces, not appends to, the previous round's batch.
  std::vector<BoundaryEntry> in = sample_batch();
  RoundBeginFrame f;
  decode_round_begin_into(round_begin_bytes(f), f, in);
  EXPECT_TRUE(in.empty());

  // A widest message costs exactly kMaxEntryWireBytes, so a frame whose
  // every arc carries one meets round_begin_bound exactly.
  Message widest;
  for (std::size_t i = 0; i < Message::kMaxFields; ++i) widest.push(~0ULL, 64);
  Outbound full(kShards);
  full[2].assign(3, BoundaryEntry{1, widest});
  const auto bytes = start_done_bytes(StartDoneFrame{}, full);
  const auto d = decode_start_done(bytes);
  EXPECT_EQ(d.groups[2].entries.size(), 3 * kMaxEntryWireBytes);
  EXPECT_EQ(relayed_round_begin(f, d.groups).size(), round_begin_bound(3));
}

TEST(ShardCodec, WakeCountsAndSweepFlagRoundTrip) {
  StartDoneFrame s = sample_start_done();
  s.wakes = -4;  // like inflight, a per-worker count may go negative
  EXPECT_EQ(decode_start_done(start_done_bytes(s)).f.wakes, -4);
  RoundEndFrame e = sample_round_end();
  e.wakes = 37;
  EXPECT_EQ(decode_round_end(round_end_bytes(e)).f.wakes, 37);
  for (const bool audit : {false, true}) {
    for (const bool sweep : {false, true}) {
      RoundBeginFrame f;
      f.round = 9;
      f.memory_audit = audit;
      f.memory_sweep_all = sweep;
      const DecodedBegin d = decode_round_begin(round_begin_bytes(f));
      EXPECT_EQ(d.f.memory_audit, audit);
      EXPECT_EQ(d.f.memory_sweep_all, sweep);
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
  const auto bytes = round_end_bytes(f, sample_outbound());
  const auto d = decode_round_end(bytes);
  EXPECT_EQ(d.f.round, f.round);
  EXPECT_EQ(d.f.inflight, f.inflight);
  EXPECT_EQ(d.f.halted, f.halted);
  const RunStats &a = d.f.stats, &b = f.stats;
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
  ASSERT_EQ(d.f.events.size(), 2u);
  EXPECT_EQ(d.f.events[0].from, 3u);
  EXPECT_EQ(d.f.events[0].to, 9u);
  expect_eq(d.f.events[1].msg, f.events[1].msg);
  const Outbound want = sample_outbound();
  for (std::uint32_t t = 0; t < kShards; ++t) {
    expect_eq(entries_of(d.groups[t]), want[t]);
  }

  // The coordinator relays every source's group for one receiver, source
  // shards ascending, and the receiver decodes the concatenation.
  Outbound other(kShards);
  other[0] = {{99, full_msg()}};
  const auto other_bytes = round_end_bytes(f, other);
  const auto e = decode_round_end(other_bytes);
  const std::vector<BoundaryGroup> to_shard0 = {d.groups[0], e.groups[0]};
  const DecodedBegin relayed =
      decode_round_begin(relayed_round_begin(RoundBeginFrame{}, to_shard0));
  std::vector<BoundaryEntry> expect = want[0];
  expect.push_back(other[0][0]);
  expect_eq(relayed.in, expect);
}

/// Offsets into a round_end whose outbound holds groups for shards 1 and
/// 2 of one entry each (a two-field message, 26 bytes): the payload ends
/// with those two groups.
struct TwoGroups {
  std::vector<std::uint8_t> bytes;
  std::size_t first = 0;   ///< the first group's u32 shard
  std::size_t second = 0;  ///< the second group's u32 shard
};

TwoGroups two_group_round_end() {
  Outbound out(kShards);
  out[1] = {{5, inline_msg()}};
  out[2] = {{6, inline_msg()}};
  TwoGroups g{round_end_bytes(sample_round_end(), out)};
  g.second = g.bytes.size() - (12 + 26);
  g.first = g.second - (12 + 26);
  return g;
}

void put_u32(std::vector<std::uint8_t>& p, std::size_t at, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) {
    p[at + i] = static_cast<std::uint8_t>(x >> (8 * i));
  }
}

TEST(ShardCodec, RejectsBadDestinationShards) {
  // A group for a shard the session does not have.
  Outbound wide(kShards + 1);
  wide[kShards] = sample_batch();
  EXPECT_THROW(decode_round_end(round_end_bytes(sample_round_end(), wide)),
               serve::ProtocolError);
  EXPECT_THROW(decode_start_done(start_done_bytes(sample_start_done(), wide)),
               serve::ProtocolError);
  // Groups must name shards strictly ascending and below the shard
  // count: rename one of two groups (shards 1 and 2).
  struct Case {
    const char* what;
    bool second;
    std::uint32_t shard;
  };
  const TwoGroups valid = two_group_round_end();
  ASSERT_NO_THROW(decode_round_end(valid.bytes));
  for (const Case& c : {Case{"repeated", true, 1}, Case{"descending", true, 0},
                        Case{"first above second", false, 2},
                        Case{"out of range", true, kShards}}) {
    auto p = valid.bytes;
    put_u32(p, c.second ? valid.second : valid.first, c.shard);
    EXPECT_THROW(decode_round_end(p), serve::ProtocolError) << c.what;
  }
}

TEST(ShardCodec, HarvestDoneRoundTrips) {
  const std::vector<Message> states = {inline_msg(), full_msg(),
                                       Message()};  // zero fields is legal
  const auto d = decode_harvest_done(encode_harvest_done(states));
  ASSERT_EQ(d.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) expect_eq(d[i], states[i]);
}

TEST(ShardCodec, ErrorRoundTripsAndTruncates) {
  EXPECT_EQ(decode_error(encode_error("boom")), "boom");
  const std::string huge(serve::kMaxMessageBytes + 100, 'x');
  const std::string back = decode_error(encode_error(huge));
  EXPECT_EQ(back.size(), serve::kMaxMessageBytes);
}

/// A round_begin relaying groups from two sources, the second of which
/// ends in a full-capacity message.
std::vector<std::uint8_t> two_source_round_begin() {
  const auto a = round_end_bytes(sample_round_end(), sample_outbound());
  Outbound out(kShards);
  out[2] = sample_batch();
  const auto b = start_done_bytes(sample_start_done(), out);
  RoundBeginFrame f;
  f.round = 3;
  f.memory_audit = true;
  const std::vector<BoundaryGroup> to_shard2 = {
      decode_round_end(a).groups[2], decode_start_done(b).groups[2]};
  return relayed_round_begin(f, to_shard2);
}

// The serve discipline, applied to every shard frame shape: every strict
// prefix of a valid payload and every extension of one must fail loudly.
// A strict prefix of a start_done / round_end cuts a group header or runs
// a group's length past the end of the frame.
TEST(ShardCodec, EveryStrictPrefixAndOverlongBufferIsRejected) {
  struct Shape {
    std::vector<std::uint8_t> payload;
    std::function<void(std::span<const std::uint8_t>)> decode;
  };
  const std::vector<Shape> shapes = {
      {encode_empty(ShardOp::kStart),
       [](auto p) { decode_empty(p, ShardOp::kStart); }},
      {start_done_bytes(sample_start_done(), sample_outbound()),
       [](auto p) { decode_start_done(p); }},
      {round_begin_bytes(RoundBeginFrame{3, true, false}, sample_batch()),
       [](auto p) { decode_round_begin(p); }},
      {two_source_round_begin(), [](auto p) { decode_round_begin(p); }},
      {round_end_bytes(sample_round_end(), sample_outbound()),
       [](auto p) { decode_round_end(p); }},
      {two_group_round_end().bytes, [](auto p) { decode_round_end(p); }},
      {encode_harvest_done(std::vector<Message>{extreme_msg()}),
       [](auto p) { decode_harvest_done(p); }},
      {encode_error("why"), [](auto p) { decode_error(p); }},
  };
  for (const Shape& s : shapes) {
    ASSERT_NO_THROW(s.decode(s.payload));
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

// Every single-bit mutant of a valid start_done, round_end and relayed
// round_begin either decodes or throws serve::ProtocolError; the groups
// of a start_done / round_end mutant that decodes are relayed and must
// meet the receiver's decoder on the same terms. Nothing else may escape
// (the sanitizer builds run this sweep too).
TEST(ShardCodec, EverySingleBitFlipDecodesOrIsAProtocolError) {
  const auto relay_all = [](const std::vector<BoundaryGroup>& groups) {
    for (const BoundaryGroup& g : groups) {
      try {
        decode_round_begin(relayed_round_begin(RoundBeginFrame{}, {&g, 1}));
      } catch (const serve::ProtocolError&) {
      }
    }
  };
  struct Shape {
    const char* name;
    std::vector<std::uint8_t> payload;
    std::function<void(std::span<const std::uint8_t>)> decode;
  };
  const std::vector<Shape> shapes = {
      {"start_done", start_done_bytes(sample_start_done(), sample_outbound()),
       [&](auto p) { relay_all(decode_start_done(p).groups); }},
      {"round_end", round_end_bytes(sample_round_end(), sample_outbound()),
       [&](auto p) { relay_all(decode_round_end(p).groups); }},
      {"round_begin", two_source_round_begin(),
       [](auto p) { decode_round_begin(p); }},
  };
  for (const Shape& s : shapes) {
    std::size_t decoded = 0;
    for (std::size_t bit = 0; bit < 8 * s.payload.size(); ++bit) {
      auto p = s.payload;
      p[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      try {
        s.decode(p);
        ++decoded;
      } catch (const serve::ProtocolError&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << s.name << " bit " << bit << " threw " << e.what();
      }
    }
    // Flipped payload bits (slots, counters, field values) still decode.
    EXPECT_GT(decoded, 0u) << s.name;
  }
}

TEST(ShardCodec, RejectsBadVersionReservedAndOp) {
  auto p = start_done_bytes(sample_start_done());
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
  // round_begin claiming 2^32-1 boundary entries.
  bomb = round_begin_bytes(RoundBeginFrame{});
  std::fill(bomb.end() - 4, bomb.end(), 0xFF);
  EXPECT_THROW(decode_round_begin(bomb), serve::ProtocolError);

  // Group headers whose count and length disagree, or whose length runs
  // past the frame. Each group holds one 26-byte entry; its u32 count
  // sits 4 bytes after its shard, its u32 length 8 bytes after.
  struct Case {
    const char* what;
    bool second;
    std::size_t field;  ///< 4: count, 8: length
    std::uint32_t value;
  };
  const TwoGroups valid = two_group_round_end();
  for (const Case& c : {
           Case{"length below count x 8", true, 8, 7},
           Case{"count x 8 above the length", false, 4, 4},
           Case{"count bomb", false, 4, 0xFFFFFFFFu},
           Case{"length above count x kMaxEntryWireBytes", true, 4, 0},
           Case{"length one past the frame", true, 8, 27},
           Case{"length bomb", false, 8, 0xFFFFFFFFu},
       }) {
    auto p = valid.bytes;
    put_u32(p, (c.second ? valid.second : valid.first) + c.field, c.value);
    EXPECT_THROW(decode_round_end(p), serve::ProtocolError) << c.what;
  }
  // The same header checks guard start_done: a length past the frame.
  Outbound one(kShards);
  one[2] = {{6, inline_msg()}};
  auto start = start_done_bytes(sample_start_done(), one);
  put_u32(start, start.size() - 26 - 4, 27);
  EXPECT_THROW(decode_start_done(start), serve::ProtocolError);

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
  // A harvested state, an observer event, and a boundary entry in each
  // frame that carries boundary traffic.
  const auto harvest = encode_harvest_done(std::vector<Message>{full_msg()});
  EXPECT_NO_THROW(decode_harvest_done(harvest));
  EXPECT_THROW(decode_harvest_done(overfill_last_message(harvest)),
               serve::ProtocolError);

  const auto end = round_end_bytes(sample_round_end());  // last: an event
  EXPECT_NO_THROW(decode_round_end(end));
  EXPECT_THROW(decode_round_end(overfill_last_message(end)),
               serve::ProtocolError);

  const auto begin = round_begin_bytes(RoundBeginFrame{}, sample_batch());
  EXPECT_NO_THROW(decode_round_begin(begin));
  EXPECT_THROW(decode_round_begin(overfill_last_message(begin)),
               serve::ProtocolError);

  // In a start_done / round_end group the coordinator checks only the
  // header, so an overfilled entry whose group length grew with it passes
  // the sender's frame and is rejected by the receiving worker.
  Outbound out(kShards);
  out[2] = sample_batch();  // 3 entries: 26 + 26 + 71 bytes
  for (const bool start : {false, true}) {
    auto p = start ? start_done_bytes(sample_start_done(), out)
                   : round_end_bytes(sample_round_end(), out);
    const std::size_t len_at = p.size() - (26 + 26 + 71) - 4;
    p = overfill_last_message(std::move(p));
    put_u32(p, len_at, 26 + 26 + 71 + 9);
    const auto groups = start ? decode_start_done(p).groups
                              : decode_round_end(p).groups;
    ASSERT_EQ(groups[2].count, 3u);
    EXPECT_THROW(entries_of(groups[2]), serve::ProtocolError);
  }
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
  // W=1 has no boundary traffic at all — the degenerate split must still
  // produce the exact sequential stats.
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
// Worst-case transport: the per-arc frame bound holds
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

TEST(ShardedNetwork, WorstCaseBoundaryTrafficIsBitIdenticalAndAllocationFree) {
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

  // Every boundary arc carried a widest message in every relayed batch:
  // on_start's in round 1's round_begin, and round r's in round r+1's, so
  // the last round's batch is still waiting at the coordinator. Each
  // entry costs exactly the per-arc bound the buffers were reserved with.
  std::uint64_t cut = 0;
  for (std::uint32_t s = 0; s < cfg.shards; ++s) {
    cut += boundary_arcs(g, net.assignment(), s).size();
  }
  ASSERT_GT(cut, 0u);
  const std::uint64_t relayed = (kWarm + kRounds) * cut;
  EXPECT_EQ(net.perf().boundary_messages, relayed);
  EXPECT_EQ(net.perf().boundary_bytes, relayed * kMaxEntryWireBytes);
  net.shutdown();
}

TEST(ShardedNetwork, RelayedBoundaryBytesSurviveAHarvestBetweenPhases) {
  // A flood phase ends with every boundary arc's last message still at the
  // coordinator, as bytes inside the workers' round_end frames. Reading
  // every program harvests between the phases; the next phase must still
  // relay those bytes intact.
  Rng rng(31);
  const Graph g = graph::make_connected_er(36, 0.15, rng);
  NetworkConfig net_cfg;
  net_cfg.policy = BandwidthPolicy::kRecord;
  const auto make = [](NodeId) { return std::make_unique<WidestFlood>(); };
  constexpr std::uint32_t kPhase = 5;

  Network seq(g, net_cfg);
  seq.init_programs(make);
  const RunStats seq_first = seq.run_rounds(kPhase);
  std::vector<std::uint64_t> seq_mid;
  for (NodeId v = 0; v < g.n(); ++v) {
    seq_mid.push_back(seq.program_as<WidestFlood>(v).digest_);
  }
  const RunStats seq_second = seq.run_rounds(kPhase);

  for (const std::uint32_t w : {2u, 4u}) {
    const std::string where = "W=" + std::to_string(w);
    ShardConfig cfg;
    cfg.shards = w;
    cfg.net = net_cfg;
    ShardedNetwork net(g, cfg);
    net.init_programs(make);
    std::uint64_t cut = 0;
    for (std::uint32_t s = 0; s < w; ++s) {
      cut += boundary_arcs(g, net.assignment(), s).size();
    }
    ASSERT_GT(cut, 0u) << where;
    expect_same_stats(net.run_rounds(kPhase), seq_first, where + " first");
    EXPECT_EQ(net.perf().boundary_messages, kPhase * cut) << where;
    for (NodeId v = 0; v < g.n(); ++v) {
      EXPECT_EQ(net.program_as<WidestFlood>(v).digest_, seq_mid[v])
          << where << " node " << v << " after the first phase";
    }
    expect_same_stats(net.run_rounds(kPhase), seq_second, where + " second");
    EXPECT_EQ(net.perf().boundary_messages, 2 * kPhase * cut) << where;
    for (NodeId v = 0; v < g.n(); ++v) {
      EXPECT_EQ(net.program_as<WidestFlood>(v).digest_,
                seq.program_as<WidestFlood>(v).digest_)
          << where << " node " << v << " after the second phase";
    }
    net.shutdown();
  }
}

}  // namespace
}  // namespace qc::congest::shard
