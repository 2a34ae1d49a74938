#include "congest/shard/codec.hpp"

#include <algorithm>
#include <string_view>

#include "util/error.hpp"

namespace qc::congest::shard {

using serve::ProtocolError;

namespace {

constexpr std::size_t kHeaderBytes = 4;  // version, op, 2 reserved
// Fixed stats block: u32 + u64*2 + u32 + u64 + u8 + u64*4.
constexpr std::size_t kStatsBytes = 4 + 8 + 8 + 4 + 8 + 1 + 8 + 8 + 8 + 8;

void proto_require(bool cond, const char* msg) {
  if (!cond) throw ProtocolError(msg);
}

/// Stores the low `k` bytes of `x` at `p`, little-endian.
void store_le(std::uint8_t* p, std::uint64_t x, std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) {
    p[i] = static_cast<std::uint8_t>(x >> (8 * i));
  }
}

std::uint64_t load_le(const std::uint8_t* p, std::size_t k) {
  std::uint64_t x = 0;
  for (std::size_t i = 0; i < k; ++i) {
    x |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return x;
}

/// Little-endian writer appending to a vector. Round frames reuse one
/// vector whose capacity was reserved to the frame bound, so appending
/// never reallocates in steady state.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t x) { out_.push_back(x); }
  void u32(std::uint32_t x) { store_le(grow(4), x, 4); }
  void u64(std::uint64_t x) { store_le(grow(8), x, 8); }

  /// Appends `k` bytes and returns where they start, so a whole record
  /// can be stored with one size update.
  std::uint8_t* grow(std::size_t k) {
    const std::size_t at = out_.size();
    out_.resize(at + k);
    return out_.data() + at;
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian cursor. Every primitive read validates the
/// remaining byte count, so a strict prefix of a valid payload fails at
/// the first missing byte; done() rejects trailing bytes, so an overlong
/// buffer fails too.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> buf) : buf_(buf) {}

  std::uint8_t u8() { return *take(1); }
  std::uint32_t u32() {
    return static_cast<std::uint32_t>(load_le(take(4), 4));
  }
  std::uint64_t u64() { return load_le(take(8), 8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::size_t remaining() const { return buf_.size() - pos_; }

  /// Consumes `k` bytes and returns where they start.
  const std::uint8_t* take(std::size_t k) {
    need(k);
    pos_ += k;
    return buf_.data() + pos_ - k;
  }

  void done() const {
    proto_require(pos_ == buf_.size(),
                  "shard: payload has trailing bytes after its last field");
  }

 private:
  void need(std::size_t k) const {
    proto_require(buf_.size() - pos_ >= k,
                  "shard: payload truncated inside a field");
  }

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

void put_header(Writer& w, ShardOp op) {
  w.u8(kShardProtocolVersion);
  w.u8(static_cast<std::uint8_t>(op));
  w.u8(0);
  w.u8(0);
}

/// Validates the fixed header and returns a reader positioned at the body.
Reader open_body(std::span<const std::uint8_t> payload, ShardOp expect) {
  proto_require(decode_op(payload) == expect,
                "shard: payload op does not match the expected frame type");
  Reader r(payload);
  r.take(kHeaderBytes);
  return r;
}

/// Stores `m` at `p` (4 + 9 * num_fields bytes) and returns the byte
/// after it.
std::uint8_t* store_message(std::uint8_t* p, const Message& m) {
  const std::size_t count = m.num_fields();
  store_le(p, count, 4);
  p += 4;
  for (std::size_t i = 0; i < count; ++i, p += 9) {
    p[0] = static_cast<std::uint8_t>(m.field_bits(i));
    store_le(p + 1, m.field(i), 8);
  }
  return p;
}

void read_message_into(Reader& r, Message& m) {
  const std::uint32_t count = r.u32();
  proto_require(count <= Message::kMaxFields,
                "shard: message field count exceeds Message::kMaxFields");
  proto_require(r.remaining() >= static_cast<std::size_t>(count) * 9,
                "shard: message field count disagrees with the payload size");
  const std::uint8_t* p = r.take(static_cast<std::size_t>(count) * 9);
  m.clear();
  for (std::uint32_t i = 0; i < count; ++i, p += 9) {
    const std::uint32_t width = p[0];
    const std::uint64_t value = load_le(p + 1, 8);
    proto_require(width >= 1 && width <= 64,
                  "shard: message field width outside [1,64]");
    proto_require(width == 64 || value < (1ULL << width),
                  "shard: message field value does not fit its width");
    m.push(value, width);
  }
}

void put_events(Writer& w, const std::vector<DeliveryEvent>& events) {
  std::size_t bytes = 4;
  for (const auto& e : events) bytes += 8 + 4 + 9 * e.msg.num_fields();
  std::uint8_t* p = w.grow(bytes);
  store_le(p, events.size(), 4);
  p += 4;
  for (const auto& e : events) {
    store_le(p, e.from, 4);
    store_le(p + 4, e.to, 4);
    p = store_message(p + 8, e.msg);
  }
}

void read_events_into(Reader& r, std::vector<DeliveryEvent>& out) {
  const std::uint32_t count = r.u32();
  proto_require(r.remaining() >= static_cast<std::size_t>(count) * 12,
                "shard: event count disagrees with the payload size");
  out.resize(count);
  for (auto& e : out) {
    e.from = r.u32();
    e.to = r.u32();
    read_message_into(r, e.msg);
  }
}

/// Replaces `into` with the batch's entries.
void read_batch_into(Reader& r, std::vector<BoundaryEntry>& into) {
  const std::uint32_t count = r.u32();
  // Cheapest entry is 8 bytes (slot + empty message).
  proto_require(r.remaining() >= static_cast<std::size_t>(count) * 8,
                "shard: boundary entry count disagrees with the payload size");
  into.resize(count);
  for (BoundaryEntry& e : into) {
    e.slot = r.u32();
    read_message_into(r, e.msg);
  }
}

void put_outbound(Writer& w, const Outbound& out) {
  std::uint32_t groups = 0;
  for (const auto& batch : out) groups += batch.empty() ? 0 : 1;
  w.u32(groups);
  for (std::uint32_t t = 0; t < out.size(); ++t) {
    if (out[t].empty()) continue;
    std::size_t bytes = 0;
    for (const auto& e : out[t]) bytes += 8 + 9 * e.msg.num_fields();
    std::uint8_t* p = w.grow(12 + bytes);
    store_le(p, t, 4);
    store_le(p + 4, out[t].size(), 4);
    store_le(p + 8, bytes, 4);
    p += 12;
    for (const auto& e : out[t]) {
      store_le(p, e.slot, 4);
      p = store_message(p + 4, e.msg);
    }
  }
}

/// Checks every group header and points groups[shard] at its entries;
/// the entries themselves are left to the receiving worker.
void read_groups(Reader& r, std::span<BoundaryGroup> groups) {
  std::fill(groups.begin(), groups.end(), BoundaryGroup{});
  const std::uint32_t count = r.u32();
  proto_require(count <= groups.size(),
                "shard: more boundary groups than shards");
  std::uint32_t next = 0;  // lowest shard the next group may name
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t t = r.u32();
    proto_require(t >= next && t < groups.size(),
                  "shard: boundary group names a bad or repeated shard");
    const std::uint64_t entries = r.u32();
    const std::uint32_t len = r.u32();
    proto_require(len >= entries * 8 && len <= entries * kMaxEntryWireBytes,
                  "shard: boundary group length disagrees with its count");
    groups[t] = {static_cast<std::uint32_t>(entries), {r.take(len), len}};
    next = t + 1;
  }
}

void put_stats(Writer& w, const RunStats& s) {
  w.u32(s.rounds);
  w.u64(s.messages);
  w.u64(s.bits);
  w.u32(s.max_edge_bits);
  w.u64(s.violations);
  w.u8(s.quiesced ? 1 : 0);
  w.u64(s.max_node_memory_bits);
  w.u64(s.messages_dropped);
  w.u64(s.messages_corrupted);
  w.u64(s.crashed_node_rounds);
}

RunStats read_stats(Reader& r) {
  proto_require(r.remaining() >= kStatsBytes,
                "shard: payload truncated inside the stats block");
  RunStats s;
  s.rounds = r.u32();
  s.messages = r.u64();
  s.bits = r.u64();
  s.max_edge_bits = r.u32();
  s.violations = r.u64();
  const std::uint8_t q = r.u8();
  proto_require(q <= 1, "shard: stats quiesced byte is not 0 or 1");
  s.quiesced = q == 1;
  s.max_node_memory_bits = r.u64();
  s.messages_dropped = r.u64();
  s.messages_corrupted = r.u64();
  s.crashed_node_rounds = r.u64();
  return s;
}

}  // namespace

const char* shard_op_name(ShardOp op) {
  switch (op) {
    case ShardOp::kStart: return "start";
    case ShardOp::kStartDone: return "start-done";
    case ShardOp::kRoundBegin: return "round-begin";
    case ShardOp::kRoundEnd: return "round-end";
    case ShardOp::kHarvest: return "harvest";
    case ShardOp::kHarvestDone: return "harvest-done";
    case ShardOp::kShutdown: return "shutdown";
    case ShardOp::kError: return "error";
  }
  return "unknown";
}

std::size_t round_begin_bound(std::size_t in_arcs) {
  return kRoundBeginHeaderBytes + in_arcs * kMaxEntryWireBytes;
}

std::size_t round_end_bound(std::size_t out_arcs, std::uint32_t shards,
                            std::size_t event_arcs) {
  return kHeaderBytes + 4 + 3 * 8 + kStatsBytes +
         4 + event_arcs * kMaxEventWireBytes +
         4 + static_cast<std::size_t>(shards) * 12 +
         out_arcs * kMaxEntryWireBytes;
}

ShardOp decode_op(std::span<const std::uint8_t> payload) {
  proto_require(payload.size() >= kHeaderBytes,
                "shard: payload shorter than the fixed header");
  proto_require(payload[0] == kShardProtocolVersion,
                "shard: unsupported protocol version");
  proto_require(payload[1] <= kMaxShardOp, "shard: unknown op");
  proto_require(payload[2] == 0 && payload[3] == 0,
                "shard: nonzero reserved bytes");
  return static_cast<ShardOp>(payload[1]);
}

std::vector<std::uint8_t> encode_empty(ShardOp op) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  put_header(w, op);
  return out;
}

void decode_empty(std::span<const std::uint8_t> payload, ShardOp op) {
  Reader r = open_body(payload, op);
  r.done();
}

void encode_start_done(const StartDoneFrame& f, const Outbound& out,
                       std::vector<std::uint8_t>& buf) {
  buf.clear();
  Writer w(buf);
  put_header(w, ShardOp::kStartDone);
  w.u64(static_cast<std::uint64_t>(f.inflight));
  w.u64(static_cast<std::uint64_t>(f.halted));
  w.u64(static_cast<std::uint64_t>(f.wakes));
  put_outbound(w, out);
}

void decode_start_done_into(std::span<const std::uint8_t> payload,
                            StartDoneFrame& f,
                            std::span<BoundaryGroup> groups) {
  Reader r = open_body(payload, ShardOp::kStartDone);
  f.inflight = r.i64();
  f.halted = r.i64();
  f.wakes = r.i64();
  read_groups(r, groups);
  r.done();
}

RoundBeginHeader encode_round_begin(const RoundBeginFrame& f,
                                    std::uint32_t count) {
  RoundBeginHeader h{kShardProtocolVersion,
                     static_cast<std::uint8_t>(ShardOp::kRoundBegin)};
  store_le(&h[4], f.round, 4);
  h[8] = static_cast<std::uint8_t>((f.memory_audit ? 1 : 0) |
                                   (f.memory_sweep_all ? 2 : 0));
  store_le(&h[9], count, 4);
  return h;
}

void decode_round_begin_into(std::span<const std::uint8_t> payload,
                             RoundBeginFrame& f,
                             std::vector<BoundaryEntry>& in) {
  Reader r = open_body(payload, ShardOp::kRoundBegin);
  f.round = r.u32();
  const std::uint8_t flags = r.u8();
  proto_require(flags <= 3, "shard: unknown round-begin flag bits");
  f.memory_audit = (flags & 1) != 0;
  f.memory_sweep_all = (flags & 2) != 0;
  read_batch_into(r, in);
  r.done();
}

void encode_round_end(const RoundEndFrame& f, const Outbound& out,
                      std::vector<std::uint8_t>& buf) {
  buf.clear();
  Writer w(buf);
  put_header(w, ShardOp::kRoundEnd);
  w.u32(f.round);
  w.u64(static_cast<std::uint64_t>(f.inflight));
  w.u64(static_cast<std::uint64_t>(f.halted));
  w.u64(static_cast<std::uint64_t>(f.wakes));
  put_stats(w, f.stats);
  put_events(w, f.events);
  put_outbound(w, out);
}

void decode_round_end_into(std::span<const std::uint8_t> payload,
                           RoundEndFrame& f,
                           std::span<BoundaryGroup> groups) {
  Reader r = open_body(payload, ShardOp::kRoundEnd);
  f.round = r.u32();
  f.inflight = r.i64();
  f.halted = r.i64();
  f.wakes = r.i64();
  f.stats = read_stats(r);
  read_events_into(r, f.events);
  read_groups(r, groups);
  r.done();
}

std::vector<std::uint8_t> encode_harvest_done(
    std::span<const Message> states) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  put_header(w, ShardOp::kHarvestDone);
  w.u32(static_cast<std::uint32_t>(states.size()));
  for (const auto& m : states) {
    store_message(w.grow(4 + 9 * m.num_fields()), m);
  }
  return out;
}

std::vector<Message> decode_harvest_done(
    std::span<const std::uint8_t> payload) {
  Reader r = open_body(payload, ShardOp::kHarvestDone);
  const std::uint32_t count = r.u32();
  proto_require(r.remaining() >= static_cast<std::size_t>(count) * 4,
                "shard: harvest count disagrees with the payload size");
  std::vector<Message> states(count);
  for (auto& m : states) read_message_into(r, m);
  r.done();
  return states;
}

std::vector<std::uint8_t> encode_error(const std::string& text) {
  // The worker composes the text itself; truncate rather than fail so an
  // oversized what() can never wedge the error path.
  std::string_view msg(text);
  if (msg.size() > serve::kMaxMessageBytes) {
    msg = msg.substr(0, serve::kMaxMessageBytes);
  }
  std::vector<std::uint8_t> out;
  Writer w(out);
  put_header(w, ShardOp::kError);
  w.u32(static_cast<std::uint32_t>(msg.size()));
  for (const char c : msg) w.u8(static_cast<std::uint8_t>(c));
  return out;
}

std::string decode_error(std::span<const std::uint8_t> payload) {
  Reader r = open_body(payload, ShardOp::kError);
  const std::uint32_t len = r.u32();
  proto_require(len <= serve::kMaxMessageBytes,
                "shard: error text length exceeds the cap");
  proto_require(r.remaining() == len,
                "shard: error length disagrees with the payload size");
  std::string text(reinterpret_cast<const char*>(r.take(len)), len);
  r.done();
  return text;
}

}  // namespace qc::congest::shard
