#pragma once

// Shard wire protocol — the coordinator <-> worker frames of the
// multi-process CONGEST backend.
//
// Framing reuses serve::read_frame / serve::write_frame (u32 length prefix,
// little-endian, truncation is an error) under a larger cap, and the payload
// validation follows the same adversarial discipline as src/serve/protocol:
// every count is capped and cross-checked against the remaining bytes,
// unknown version/op bytes and nonzero reserved bytes are rejected, and a
// payload with trailing bytes after its last field is malformed — so every
// strict prefix and every overlong buffer of a valid payload fails decoding.
//
// Grammar (all integers little-endian):
//
//   frame        := u32 payload_len | payload      len in [1, kMaxShardFrameBytes]
//   payload      := u8 version | u8 op | u8 x2 reserved(0) | body
//   message      := u32 num_fields | num_fields x (u8 width | u64 value)
//                   num_fields <= Message::kMaxFields,
//                   width in [1,64], value < 2^width
//   events       := u32 count | count x (u32 from | u32 to | message)
//   stats        := u32 rounds | u64 messages | u64 bits | u32 max_edge_bits
//                 | u64 violations | u8 quiesced | u64 max_node_memory_bits
//                 | u64 messages_dropped | u64 messages_corrupted
//                 | u64 crashed_node_rounds
//
//   entry        := u32 slot | message
//   batch        := u32 count | count x entry
//   group        := u32 shard | u32 count | u32 len | len bytes
//                   the len bytes are count entries;
//                   count x 8 <= len <= count x kMaxEntryWireBytes
//   outbound     := u32 groups | groups x group
//                   shard strictly ascending and < the shard count
//
//   body by op (direction):
//     start        (c->w) := (empty)                 run on_start, report
//     start_done   (w->c) := i64 inflight | i64 halted | i64 wakes
//                          | outbound
//     round_begin  (c->w) := u32 round | u8 flags | batch
//                            flags bit 0: memory audit armed
//                            flags bit 1: audit every owned node (the
//                            first round of a phase), not only those
//                            that ran
//     round_end    (w->c) := u32 round | i64 inflight | i64 halted | i64 wakes
//                          | stats | events | outbound
//     harvest      (c->w) := (empty)                 serialize owned programs
//     harvest_done (w->c) := u32 count | count x message
//     shutdown     (c->w) := (empty)                 worker exits 0
//     error        (w->c) := u32 len | len bytes     worker failed; text
//
// Boundary messages travel in a star through the coordinator. A worker's
// start_done / round_end carries the messages its owned nodes queued for
// foreign receivers, grouped by the receiving shard. The coordinator
// checks only the group headers and never decodes an entry: each shard's
// next round_begin is a fresh header followed by the groups' entry bytes
// addressed to it, source shards ascending, so the batch is the
// concatenation of those groups. The receiving worker decodes every
// entry and checks every slot against its inbound boundary slots before
// injecting it, so a malformed entry is reported by its receiver.
//
// `slot` is a flat arc index of the (identical) Network replica
// every process holds — see Network::shard_out_base. Each group is in
// extraction order (sender ascending, port ascending); `events` are in
// delivery order (receiver ascending, port ascending). Full protocol and
// determinism contract: docs/distributed.md.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "congest/message.hpp"
#include "congest/network.hpp"
#include "serve/protocol.hpp"

namespace qc::congest::shard {

using graph::NodeId;

inline constexpr std::uint8_t kShardProtocolVersion = 4;

/// Hard cap on one shard frame's payload. The largest frames are a
/// harvest_done (one serialized program state per owned node) and a
/// round frame carrying one message per boundary arc, so 64 MiB covers
/// every workload in this repo with an order of magnitude of margin. A
/// frame above the cap is a protocol error — producers must respect it.
inline constexpr std::uint32_t kMaxShardFrameBytes = 1u << 26;

enum class ShardOp : std::uint8_t {
  kStart = 0,
  kStartDone = 1,
  kRoundBegin = 2,
  kRoundEnd = 3,
  kHarvest = 4,
  kHarvestDone = 5,
  kShutdown = 6,
  kError = 7,
};
inline constexpr std::uint8_t kMaxShardOp =
    static_cast<std::uint8_t>(ShardOp::kError);

const char* shard_op_name(ShardOp op);

/// One delivered message a worker ships for the coordinator's observer
/// flush (the round is implicit in the enclosing round_end frame).
struct DeliveryEvent {
  NodeId from = 0;
  NodeId to = 0;
  Message msg;
};

/// One boundary message: the arc slot it was queued in and its payload.
struct BoundaryEntry {
  std::uint32_t slot = 0;
  Message msg;
};

/// A worker's outbound boundary messages indexed by receiving shard, so
/// size() is the shard count; the start_done / round_end encoders write
/// one group per nonempty shard.
using Outbound = std::vector<std::vector<BoundaryEntry>>;

/// One decoded group header: the entry count and the encoded entries, a
/// byte range of the frame that carried them (count 0: no group).
struct BoundaryGroup {
  std::uint32_t count = 0;
  std::span<const std::uint8_t> entries;
};

/// Most bytes one encoded message takes: its field count plus
/// Message::kMaxFields (width, value) pairs. The model puts at most one
/// message on an arc per round, so buffers reserved with these per-arc
/// sizes hold any round's frames.
inline constexpr std::size_t kMaxMessageWireBytes =
    4 + 9 * Message::kMaxFields;
inline constexpr std::size_t kMaxEntryWireBytes = 4 + kMaxMessageWireBytes;
inline constexpr std::size_t kMaxEventWireBytes = 8 + kMaxMessageWireBytes;

/// The bytes of a round_begin before its entries.
inline constexpr std::size_t kRoundBeginHeaderBytes = 4 + 4 + 1 + 4;
using RoundBeginHeader = std::array<std::uint8_t, kRoundBeginHeaderBytes>;

/// Most bytes a round_begin relaying `in_arcs` boundary arcs takes, and a
/// start_done / round_end from a worker with `out_arcs` outbound boundary
/// arcs over `shards` shards and `event_arcs` owned in-arcs whose
/// deliveries it ships as events (0 without an observer).
std::size_t round_begin_bound(std::size_t in_arcs);
std::size_t round_end_bound(std::size_t out_arcs, std::uint32_t shards,
                            std::size_t event_arcs);

struct StartDoneFrame {
  std::int64_t inflight = 0;
  std::int64_t halted = 0;
  std::int64_t wakes = 0;
};

struct RoundBeginFrame {
  std::uint32_t round = 0;
  bool memory_audit = false;
  bool memory_sweep_all = false;
};

struct RoundEndFrame {
  std::uint32_t round = 0;
  std::int64_t inflight = 0;
  std::int64_t halted = 0;
  std::int64_t wakes = 0;
  RunStats stats;  ///< this worker's slice of the round (quiesced unused)
  std::vector<DeliveryEvent> events;
};

/// Peeks the op byte of a framed payload after validating the fixed
/// header (length, version, reserved bytes). Throws serve::ProtocolError —
/// the shard codec reuses the serve error type so callers handle one
/// "peer violated the protocol" exception class across both protocols.
ShardOp decode_op(std::span<const std::uint8_t> payload);

// encode_* never fails for inputs within the documented caps; decode_*
// throws serve::ProtocolError on anything malformed. The body-free ops
// (start, harvest, shutdown) share encode_empty / decode_empty.
std::vector<std::uint8_t> encode_empty(ShardOp op);
void decode_empty(std::span<const std::uint8_t> payload, ShardOp op);

/// harvest_done carries the owned programs' states in canonical node order.
std::vector<std::uint8_t> encode_harvest_done(std::span<const Message> states);
std::vector<Message> decode_harvest_done(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_error(const std::string& text);
std::string decode_error(std::span<const std::uint8_t> payload);

// ---- Boundary-carrying frames ----------------------------------------------
// These run every round of every phase, so they encode into a caller-owned
// vector (cleared first) and decode into caller-owned structs: once the
// buffers are reserved to the bounds above, a steady-state round performs
// zero heap allocations end to end (bench_shard --check pins that with
// the alloc probe). The start_done / round_end decoders store each group
// at groups[shard] (the rest are reset), rejecting a shard not below
// groups.size(); the entries stay undecoded inside `payload`.

void encode_start_done(const StartDoneFrame& f, const Outbound& out,
                       std::vector<std::uint8_t>& buf);
void decode_start_done_into(std::span<const std::uint8_t> payload,
                            StartDoneFrame& f,
                            std::span<BoundaryGroup> groups);

/// The header of a round_begin relaying `count` entries, which follow it.
/// Decoding replaces `in` with the boundary messages for the worker's
/// owned receivers, sent in the previous round (or by on_start).
RoundBeginHeader encode_round_begin(const RoundBeginFrame& f,
                                    std::uint32_t count);
void decode_round_begin_into(std::span<const std::uint8_t> payload,
                             RoundBeginFrame& f,
                             std::vector<BoundaryEntry>& in);

void encode_round_end(const RoundEndFrame& f, const Outbound& out,
                      std::vector<std::uint8_t>& buf);
void decode_round_end_into(std::span<const std::uint8_t> payload,
                           RoundEndFrame& f,
                           std::span<BoundaryGroup> groups);

}  // namespace qc::congest::shard
