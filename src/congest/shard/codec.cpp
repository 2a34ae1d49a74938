#include "congest/shard/codec.hpp"

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

/// Unbounded writer over a growing vector — the socket-frame encode path.
/// Mirrors FrameWriter's interface so the header and message encoders
/// below are written once for both destinations.
class VecWriter {
 public:
  explicit VecWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t x) { out_.push_back(x); }
  void u32(std::uint32_t x) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
    }
  }
  void u64(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
    }
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

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t x = 0;
    for (int i = 0; i < 4; ++i) {
      x |= static_cast<std::uint32_t>(buf_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return x;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      x |= static_cast<std::uint64_t>(buf_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return x;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::size_t remaining() const { return buf_.size() - pos_; }

  std::size_t pos() const { return pos_; }

  const std::uint8_t* cursor() const { return buf_.data() + pos_; }

  void skip(std::size_t k) {
    need(k);
    pos_ += k;
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

template <class W>
void put_header(W& w, ShardOp op) {
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
  r.skip(kHeaderBytes);
  return r;
}

template <class W>
void put_message(W& w, const Message& m) {
  w.u32(static_cast<std::uint32_t>(m.num_fields()));
  for (std::size_t i = 0; i < m.num_fields(); ++i) {
    w.u8(static_cast<std::uint8_t>(m.field_bits(i)));
    w.u64(m.field(i));
  }
}

void read_message_into(Reader& r, Message& m) {
  const std::uint32_t count = r.u32();
  proto_require(count <= Message::kMaxFields,
                "shard: message field count exceeds Message::kMaxFields");
  proto_require(r.remaining() >= static_cast<std::size_t>(count) * 9,
                "shard: message field count disagrees with the payload size");
  m.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t width = r.u8();
    const std::uint64_t value = r.u64();
    proto_require(width >= 1 && width <= 64,
                  "shard: message field width outside [1,64]");
    proto_require(width == 64 || value < (1ULL << width),
                  "shard: message field value does not fit its width");
    m.push(value, width);
  }
}

void put_events(FrameWriter& w, const std::vector<DeliveryEvent>& events) {
  w.u32(static_cast<std::uint32_t>(events.size()));
  for (const auto& e : events) {
    w.u32(e.from);
    w.u32(e.to);
    put_message(w, e.msg);
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

void put_stats(FrameWriter& w, const RunStats& s) {
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
    case ShardOp::kMesh: return "mesh";
  }
  return "unknown";
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
  VecWriter w(out);
  put_header(w, op);
  return out;
}

void decode_empty(std::span<const std::uint8_t> payload, ShardOp op) {
  Reader r = open_body(payload, op);
  r.done();
}

std::vector<std::uint8_t> encode_start_done(const StartDoneFrame& f) {
  std::vector<std::uint8_t> out;
  VecWriter w(out);
  put_header(w, ShardOp::kStartDone);
  w.u64(static_cast<std::uint64_t>(f.inflight));
  w.u64(static_cast<std::uint64_t>(f.halted));
  w.u64(static_cast<std::uint64_t>(f.wakes));
  return out;
}

StartDoneFrame decode_start_done(std::span<const std::uint8_t> payload) {
  Reader r = open_body(payload, ShardOp::kStartDone);
  StartDoneFrame f;
  f.inflight = r.i64();
  f.halted = r.i64();
  f.wakes = r.i64();
  r.done();
  return f;
}

std::size_t encode_round_begin_to(std::span<std::uint8_t> buf,
                                  const RoundBeginFrame& f) {
  FrameWriter w(buf);
  put_header(w, ShardOp::kRoundBegin);
  w.u32(f.round);
  w.u8(static_cast<std::uint8_t>((f.memory_audit ? 1 : 0) |
                                  (f.memory_sweep_all ? 2 : 0)));
  return w.size();
}

void decode_round_begin_into(std::span<const std::uint8_t> payload,
                             RoundBeginFrame& f) {
  Reader r = open_body(payload, ShardOp::kRoundBegin);
  f.round = r.u32();
  const std::uint8_t flags = r.u8();
  proto_require(flags <= 3, "shard: unknown round-begin flag bits");
  f.memory_audit = (flags & 1) != 0;
  f.memory_sweep_all = (flags & 2) != 0;
  r.done();
}

std::size_t encode_round_end_to(std::span<std::uint8_t> buf,
                                const RoundEndFrame& f) {
  FrameWriter w(buf);
  put_header(w, ShardOp::kRoundEnd);
  w.u32(f.round);
  w.u64(static_cast<std::uint64_t>(f.inflight));
  w.u64(static_cast<std::uint64_t>(f.halted));
  w.u64(static_cast<std::uint64_t>(f.wakes));
  w.u64(f.boundary_bytes);
  w.u64(f.boundary_msgs);
  put_stats(w, f.stats);
  put_events(w, f.events);
  return w.size();
}

void decode_round_end_into(std::span<const std::uint8_t> payload,
                           RoundEndFrame& f) {
  Reader r = open_body(payload, ShardOp::kRoundEnd);
  f.round = r.u32();
  f.inflight = r.i64();
  f.halted = r.i64();
  f.wakes = r.i64();
  f.boundary_bytes = r.u64();
  f.boundary_msgs = r.u64();
  f.stats = read_stats(r);
  read_events_into(r, f.events);
  r.done();
}

std::vector<std::uint8_t> encode_harvest_done(const HarvestDoneFrame& f) {
  std::vector<std::uint8_t> out;
  VecWriter w(out);
  put_header(w, ShardOp::kHarvestDone);
  w.u32(static_cast<std::uint32_t>(f.states.size()));
  for (const auto& m : f.states) put_message(w, m);
  return out;
}

HarvestDoneFrame decode_harvest_done(std::span<const std::uint8_t> payload) {
  Reader r = open_body(payload, ShardOp::kHarvestDone);
  const std::uint32_t count = r.u32();
  proto_require(r.remaining() >= static_cast<std::size_t>(count) * 4,
                "shard: harvest count disagrees with the payload size");
  HarvestDoneFrame f;
  f.states.resize(count);
  for (auto& m : f.states) read_message_into(r, m);
  r.done();
  return f;
}

std::vector<std::uint8_t> encode_error(const std::string& text) {
  // The worker composes the text itself; truncate rather than fail so an
  // oversized what() can never wedge the error path.
  std::string_view msg(text);
  if (msg.size() > serve::kMaxMessageBytes) {
    msg = msg.substr(0, serve::kMaxMessageBytes);
  }
  std::vector<std::uint8_t> out;
  VecWriter w(out);
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
  std::string text(reinterpret_cast<const char*>(r.cursor()), len);
  r.skip(len);
  r.done();
  return text;
}

// ---- Mesh batches ---------------------------------------------------------

MeshWriter::MeshWriter(std::span<std::uint8_t> buf, std::uint32_t round)
    : w_(buf) {
  put_header(w_, ShardOp::kMesh);
  w_.u32(round);
  count_at_ = w_.mark();
  w_.u32(0);  // entry count, patched by finish()
}

void MeshWriter::add(std::uint32_t slot, const Message& m) {
  w_.u32(slot);
  put_message(w_, m);
  ++count_;
}

std::size_t MeshWriter::finish() {
  w_.patch_u32(count_at_, count_);
  return w_.size();
}

MeshReader::MeshReader(std::span<const std::uint8_t> payload,
                       std::uint32_t round)
    : buf_(payload) {
  Reader r = open_body(payload, ShardOp::kMesh);
  const std::uint32_t stamp = r.u32();
  proto_require(stamp == round,
                "shard: mesh batch carries the wrong round number");
  count_ = r.u32();
  // Cheapest entry is 8 bytes (slot + empty message).
  proto_require(r.remaining() >= static_cast<std::size_t>(count_) * 8,
                "shard: mesh entry count disagrees with the payload size");
  if (count_ == 0) r.done();
  pos_ = r.pos();
}

bool MeshReader::next(std::uint32_t& slot, Message& m) {
  if (read_ == count_) return false;
  Reader r(buf_.subspan(pos_));
  slot = r.u32();
  read_message_into(r, m);
  pos_ += r.pos();
  ++read_;
  if (read_ == count_) {
    proto_require(pos_ == buf_.size(),
                  "shard: payload has trailing bytes after its last field");
  }
  return true;
}

}  // namespace qc::congest::shard
