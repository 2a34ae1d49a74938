#pragma once

// Shared-memory transport for the multi-process CONGEST backend.
//
// PR 9's data plane moved every round's boundary payload through the
// coordinator's socketpairs: each message was encoded worker-side, copied
// through the kernel, decoded, routed and re-encoded by the coordinator,
// copied through the kernel again and decoded once more by its receiving
// worker — with fresh codec buffers allocated at every hop. On the
// flooding workload that put the coordinator's CPU and the allocator on
// the critical path of every round and capped sharded throughput at a
// fraction of the sequential engine (docs/performance.md).
//
// This module replaces that data plane with memory the processes already
// share. Everything is carved out of ONE anonymous `mmap(MAP_SHARED)`
// arena created by the coordinator *before* fork, so every worker inherits
// the same physical pages at the same address and no name, unlink or
// permission handling exists at all:
//
//  * `ShmChannel` — a single-slot coordinator<->worker mailbox with a
//    futex doorbell. One channel per direction per worker. The protocol is
//    strict ping-pong (the round barrier admits exactly one outstanding
//    frame per direction), so a single slot is a ring of capacity one and
//    `publish` never waits. A publication is either a codec frame placed
//    in the slot (`kFrame`) or a hint that a frame was written to the
//    control socket instead (`kSocket`). Round frames always fit their
//    slot; the socket carries only lifecycle frames that can outgrow it
//    (a large harvest_done) and error reports, and the hint keeps the
//    consumer blocking on one futex word only.
//  * `MeshRing` — a double-buffered worker->worker segment carrying one
//    round's boundary batch for one directed shard pair. Workers exchange
//    boundary messages directly; the coordinator never touches the bytes.
//    Double buffering is what makes that safe without extra sync: round r
//    consumers read slot r&1 while round r+1 producers fill slot (r+1)&1,
//    and the coordinator's round barrier (all round_ends of r precede any
//    round_begin of r+1) keeps any slot's writer a full round behind its
//    reader. A slot is stamped with the round its contents feed; a
//    consumer finding any other stamp (a stale slot, a torn writer, a
//    crafted segment) rejects it as a protocol error, exactly like a
//    malformed socket frame. Rings are sized once at spawn from the
//    CONGEST bound — at most one message of at most Message::kMaxFields
//    fields per arc per round — so a batch always fits its segment.
//
// The round barrier needs no extra wake-up word: the coordinator sleeps on
// the w2c doorbell of the first worker it still waits for, then scans
// every channel (sharded_network.cpp, collect_all).
//
// Segment contents are untrusted input: every frame read out of shared
// memory goes through the same codec validation as a socket frame
// (tests/test_shard.cpp drives truncated, overlong and stale-round
// segment contents through these classes directly).
//
// All blocking uses FUTEX_WAIT with a bounded timeout and re-checks
// liveness on expiry, so a dead peer degrades into a clean error, never a
// hang. On non-Linux hosts the futex calls degrade to a short-sleep poll
// loop with identical semantics.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "congest/message.hpp"
#include "graph/graph.hpp"

namespace qc::congest::shard {

struct ShardAssignment;  // partition.hpp

/// What a channel publication announces.
enum class ShmSignal : std::uint32_t {
  kNone = 0,    ///< nothing published (poll/wait found the channel idle)
  kFrame = 1,   ///< a codec frame is in the channel's slot
  kSocket = 2,  ///< a codec frame was written to the control socket
};

/// Anonymous MAP_SHARED arena; created pre-fork, inherited by every worker.
/// Move-only; unmapped on destruction (each process unmaps its own view —
/// the pages live until the last mapping goes).
class ShmArena {
 public:
  ShmArena() = default;
  explicit ShmArena(std::size_t bytes);
  ~ShmArena();

  ShmArena(ShmArena&& other) noexcept;
  ShmArena& operator=(ShmArena&& other) noexcept;
  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  std::uint8_t* base() const { return base_; }
  std::size_t size() const { return size_; }
  explicit operator bool() const { return base_ != nullptr; }

 private:
  std::uint8_t* base_ = nullptr;
  std::size_t size_ = 0;
};

/// Single-slot SPSC mailbox with a futex doorbell. See file comment.
class ShmChannel {
 public:
  static constexpr std::size_t kHeaderBytes = 64;
  static std::size_t bytes_needed(std::size_t capacity);

  ShmChannel() = default;
  /// Wraps a header+payload region inside the arena. Both sides construct
  /// their own (trivially cheap) view over the same memory; the zero-
  /// initialized mmap page IS the valid empty state, so there is no
  /// explicit create/attach distinction.
  ShmChannel(std::uint8_t* mem, std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  bool valid() const { return hdr_ != nullptr; }

  // -- producer side -------------------------------------------------------
  /// True when the previous publication was released by the consumer; the
  /// ping-pong protocol guarantees it at every legitimate publish point.
  bool idle() const;
  /// The slot to encode the next frame into. Contents are undefined until
  /// publish_frame; writing while !idle() is a caller bug.
  std::span<std::uint8_t> buffer();
  /// Publishes `len` bytes of the slot as a frame. Requires idle().
  void publish_frame(std::size_t len);
  /// Publishes a "check the socket" hint. Requires idle().
  void publish_signal(ShmSignal kind);
  /// Best-effort publish for teardown paths: false when the channel is
  /// busy (e.g. the peer died without releasing). Never blocks or throws.
  bool try_publish_signal(ShmSignal kind);

  // -- consumer side -------------------------------------------------------
  /// Non-blocking: the pending publication's kind, or kNone.
  ShmSignal poll() const;
  /// Blocks (short spin, then futex) until a publication arrives or
  /// `timeout_ms` expires; returns kNone on timeout.
  ShmSignal wait(int timeout_ms) const;
  /// The published frame's bytes. Only valid after poll()/wait() returned
  /// kFrame and before release(). Throws serve::ProtocolError if the
  /// published length exceeds the segment capacity (a torn or hostile
  /// writer), like any other malformed frame.
  std::span<const std::uint8_t> frame() const;
  /// Marks the publication consumed, making the channel idle() again.
  void release();

 private:
  struct Header {
    std::atomic<std::uint32_t> doorbell;  // publications; futex word
    std::atomic<std::uint32_t> consumed;  // releases
    std::uint32_t len;
    std::uint32_t kind;
  };
  static_assert(sizeof(Header) <= kHeaderBytes);

  Header* hdr_ = nullptr;
  std::uint8_t* payload_ = nullptr;
  std::size_t capacity_ = 0;
};

/// Double-buffered worker->worker boundary segment for one directed shard
/// pair. Producer stamps slot r&1 with round r; consumer of round r
/// requires exactly that stamp. See file comment for why two slots make
/// the overwrite race-free under the round barrier.
class MeshRing {
 public:
  static constexpr std::size_t kSlotHeaderBytes = 64;
  static std::size_t bytes_needed(std::size_t capacity);

  MeshRing() = default;
  MeshRing(std::uint8_t* mem, std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  bool valid() const { return base_ != nullptr; }

  /// Producer: the payload area of the slot that will carry round `round`.
  std::span<std::uint8_t> produce_buffer(std::uint32_t round);
  /// Publishes `len` bytes of that slot, stamped `round`.
  void publish(std::uint32_t round, std::size_t len);

  /// Consumer: the bytes published for `round`. Throws
  /// serve::ProtocolError when the slot's stamp is not exactly `round`
  /// (stale contents / writer skew) or its length exceeds the capacity.
  std::span<const std::uint8_t> consume(std::uint32_t round) const;

 private:
  struct SlotHeader {
    std::atomic<std::uint32_t> round;
    std::uint32_t len;
  };
  static_assert(sizeof(SlotHeader) <= kSlotHeaderBytes);

  /// Bytes from one slot's header to the next: header plus payload,
  /// rounded up so slot 1's header is as aligned as slot 0's.
  static std::size_t slot_stride(std::size_t capacity);
  SlotHeader* slot_hdr(std::uint32_t i) const;
  std::uint8_t* slot_payload(std::uint32_t i) const;

  std::uint8_t* base_ = nullptr;
  std::size_t capacity_ = 0;
};

/// Where every channel and mesh ring lives inside the arena, plus the
/// capacities they were sized with. Computed once by the coordinator
/// before fork (workers inherit the result), purely from the graph and
/// the assignment, so both sides agree by construction.
struct ShmLayout {
  struct Seg {
    std::size_t off = 0;
    std::size_t cap = 0;  ///< payload capacity; 0 = segment absent
  };
  std::size_t total_bytes = 0;
  std::vector<Seg> c2w;   ///< per worker: coordinator -> worker channel
  std::vector<Seg> w2c;   ///< per worker: worker -> coordinator channel
  /// mesh[s * shards + t]: boundary segment for arcs owner(u)=s ->
  /// owner(v)=t; cap 0 when the pair has no boundary arcs (no ring).
  std::vector<Seg> mesh;
  std::uint32_t shards = 0;

  const Seg& mesh_seg(std::uint32_t s, std::uint32_t t) const {
    return mesh[static_cast<std::size_t>(s) * shards + t];
  }
};

/// Most bytes one encoded message takes on the wire: its field count plus
/// Message::kMaxFields (width, value) pairs (codec.hpp grammar).
inline constexpr std::size_t kMaxMessageWireBytes =
    4 + 9 * Message::kMaxFields;
/// Bytes per boundary arc in a mesh batch: slot id + one message. The
/// model sends at most one message per arc per round, so a ring sized
/// with this per arc always holds the round's batch.
inline constexpr std::size_t kMeshBytesPerArc = 4 + kMaxMessageWireBytes;
/// Fixed per-mesh-batch bytes: header, round stamp and entry count.
inline constexpr std::size_t kMeshFrameOverhead = 4 + 4 + 4;
/// Control-channel slot size: round_begin and the fixed part of round_end
/// (~120 bytes) plus room for small lifecycle frames. A lifecycle frame
/// that outgrows it (a large harvest_done) takes the socket path.
inline constexpr std::size_t kControlChannelBytes = 4096;
/// Extra w2c capacity budgeted per owned inbound arc when the observer
/// stream is collected (events ride the worker->coordinator channel):
/// from + to + one message, at most one delivery per arc per round.
inline constexpr std::size_t kEventBytesPerArc = 8 + kMaxMessageWireBytes;

ShmLayout plan_layout(const graph::Graph& g, const ShardAssignment& asn,
                      bool collect_events);

}  // namespace qc::congest::shard
