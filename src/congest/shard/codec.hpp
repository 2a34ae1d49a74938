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
//   body by op (direction):
//     start        (c->w) := (empty)                 run on_start, report
//     start_done   (w->c) := i64 inflight | i64 halted | i64 wakes
//     round_begin  (c->w) := u32 round | u8 flags
//                            flags bit 0: memory audit armed
//                            flags bit 1: audit every owned node (the
//                            first round of a phase), not only those
//                            that ran
//     round_end    (w->c) := u32 round | i64 inflight | i64 halted | i64 wakes
//                          | u64 boundary_bytes | u64 boundary_msgs
//                          | stats | events
//     harvest      (c->w) := (empty)                 serialize owned programs
//     harvest_done (w->c) := u32 count | count x message
//     shutdown     (c->w) := (empty)                 worker exits 0
//     error        (w->c) := u32 len | len bytes     worker failed; text
//     mesh         (w->w) := u32 round | u32 count | count x
//                            (u32 slot | message)
//
// `mesh` payloads never cross a socket: they are the contents of the
// worker-to-worker shared-memory segments (shm_ring.hpp), carrying one
// round's boundary batch for one directed shard pair. They keep the full
// version/op/reserved header and the same adversarial validation as every
// socket frame — shared memory is still untrusted input. Boundary
// messages travel only there: the CONGEST model puts at most one message
// of at most Message::kMaxFields fields on an arc per round, so a batch
// never outgrows a segment sized by plan_layout, and round_begin /
// round_end never outgrow their channel slots. boundary_bytes /
// boundary_msgs report what the worker moved through its mesh segments.
//
// `slot` is a flat arc index of the (identical) Network replica
// every process holds — see Network::shard_out_base. Mesh batches are in
// extraction order (sender ascending, port ascending); `events` are in
// delivery order (receiver ascending, port ascending). Full protocol and
// determinism contract: docs/distributed.md.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "congest/message.hpp"
#include "congest/network.hpp"
#include "serve/protocol.hpp"
#include "util/error.hpp"

namespace qc::congest::shard {

using graph::NodeId;

inline constexpr std::uint8_t kShardProtocolVersion = 2;

/// Hard cap on one shard frame's payload. Only lifecycle frames cross the
/// socket (start, harvest, error, shutdown); the largest is harvest_done,
/// one serialized program state per owned node, so 64 MiB covers every
/// workload in this repo with two orders of margin. A frame above the cap
/// is a protocol error — producers must respect it.
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
  kMesh = 8,
};
inline constexpr std::uint8_t kMaxShardOp =
    static_cast<std::uint8_t>(ShardOp::kMesh);

const char* shard_op_name(ShardOp op);

/// One delivered message a worker ships for the coordinator's observer
/// flush (the round is implicit in the enclosing round_end frame).
struct DeliveryEvent {
  NodeId from = 0;
  NodeId to = 0;
  Message msg;
};

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
  /// Boundary payload the worker published to its mesh segments this
  /// round, for the coordinator's shard.boundary_bytes accounting.
  std::uint64_t boundary_bytes = 0;
  std::uint64_t boundary_msgs = 0;
  RunStats stats;  ///< this worker's slice of the round (quiesced unused)
  std::vector<DeliveryEvent> events;
};

struct HarvestDoneFrame {
  std::vector<Message> states;  ///< owned programs, canonical node order
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

std::vector<std::uint8_t> encode_start_done(const StartDoneFrame& f);
StartDoneFrame decode_start_done(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_harvest_done(const HarvestDoneFrame& f);
HarvestDoneFrame decode_harvest_done(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_error(const std::string& text);
std::string decode_error(std::span<const std::uint8_t> payload);

// ---- Round frames ---------------------------------------------------------
// The round loop runs every round of every phase, so its frames encode into
// a caller-owned shm slot and decode into caller-owned reusable frame
// structs: a warmed steady-state round performs zero heap allocations end
// to end (bench_shard --check pins that with the alloc probe).

/// Bounded little-endian writer over a fixed buffer (a shm slot). Round
/// frames and mesh batches are sized by the CONGEST bound, so a write past
/// the end is a bug in that sizing and throws qc::InternalError.
class FrameWriter {
 public:
  explicit FrameWriter(std::span<std::uint8_t> buf) : buf_(buf) {}

  void u8(std::uint8_t x) {
    need(1);
    buf_[pos_++] = x;
  }
  void u32(std::uint32_t x) {
    need(4);
    for (int i = 0; i < 4; ++i) {
      buf_[pos_++] = static_cast<std::uint8_t>(x >> (8 * i));
    }
  }
  void u64(std::uint64_t x) {
    need(8);
    for (int i = 0; i < 8; ++i) {
      buf_[pos_++] = static_cast<std::uint8_t>(x >> (8 * i));
    }
  }

  /// Offset of the next byte — remember it to patch_u32 a count later.
  std::size_t mark() const { return pos_; }
  /// Overwrites 4 bytes at `off` (must already be written).
  void patch_u32(std::size_t off, std::uint32_t x) {
    for (int i = 0; i < 4; ++i) {
      buf_[off + i] = static_cast<std::uint8_t>(x >> (8 * i));
    }
  }

  std::size_t size() const { return pos_; }

 private:
  void need(std::size_t k) const {
    check_internal(buf_.size() - pos_ >= k,
                   "shard: frame outgrew its shared-memory slot, which is "
                   "sized by the CONGEST per-arc bound");
  }

  std::span<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// Encode into `buf` and return the payload length; throws
/// qc::InternalError if the frame does not fit.
std::size_t encode_round_begin_to(std::span<std::uint8_t> buf,
                                  const RoundBeginFrame& f);
std::size_t encode_round_end_to(std::span<std::uint8_t> buf,
                                const RoundEndFrame& f);

/// Decode into a reused frame struct: vectors are resized in place and
/// Messages rebuilt with Message::clear() + push, so a warmed frame
/// decodes without touching the heap.
void decode_round_begin_into(std::span<const std::uint8_t> payload,
                             RoundBeginFrame& f);
void decode_round_end_into(std::span<const std::uint8_t> payload,
                           RoundEndFrame& f);

/// Streams one mesh batch (op kMesh) into a ring slot.
class MeshWriter {
 public:
  MeshWriter(std::span<std::uint8_t> buf, std::uint32_t round);

  /// Appends one (slot, message) entry; throws qc::InternalError past the
  /// end of the slot, like FrameWriter.
  void add(std::uint32_t slot, const Message& m);
  std::uint32_t count() const { return count_; }
  /// Patches the entry count and returns the final byte size.
  std::size_t finish();

 private:
  FrameWriter w_;
  std::size_t count_at_;
  std::uint32_t count_ = 0;
};

/// Validating cursor over one mesh batch. The constructor checks the
/// header and the round stamp; next() validates each entry as it is read
/// and the exact end-of-buffer after the last one — a truncated, overlong
/// or stale-round segment throws serve::ProtocolError exactly like a
/// malformed socket frame.
class MeshReader {
 public:
  MeshReader(std::span<const std::uint8_t> payload, std::uint32_t round);

  std::uint32_t count() const { return count_; }
  /// Reads the next entry into (slot, m); false when the batch is
  /// exhausted (at which point trailing bytes have been rejected).
  bool next(std::uint32_t& slot, Message& m);

 private:
  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t read_ = 0;
};

}  // namespace qc::congest::shard
