#pragma once

// Full-occupancy flood: every node sends one message on every port every
// round, so every directed slot carries a delivery each round (slot
// occupancy 1.0) — the densest traffic the model allows and the shape of
// bench_shard's flooding workload.
//
// Each node folds what it hears into an order-sensitive hash and an
// order-free sum of the payloads; a sharded run must reproduce both
// exactly as the sequential congest::Network computes them.

#include <cstdint>
#include <memory>

#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "util/error.hpp"

namespace e2e {

class Flood final : public qc::congest::NodeProgram {
 public:
  /// `salt` (< 2^16) offsets the round stamp so the traffic depends on
  /// the run seed.
  explicit Flood(std::uint64_t salt) : salt_(salt) {}

  void on_start(qc::congest::NodeContext& ctx) override { blast(ctx); }

  void on_round(qc::congest::NodeContext& ctx) override {
    for (const auto& in : ctx.inbox()) {
      hash_ = mix(mix(mix(hash_, in.port), in.msg.field(0)), in.msg.field(1));
      sum_ += in.msg.field(0) + in.msg.field(1);
    }
    blast(ctx);
  }

  void serialize_state(qc::congest::Message& out) const override {
    out.push(hash_, 64);
    out.push(sum_, 64);
  }
  void restore_state(const qc::congest::Message& in) override {
    qc::require(in.num_fields() == 2, "Flood::restore_state: bad shape");
    hash_ = in.field(0);
    sum_ = in.field(1);
  }

  std::uint64_t hash() const { return hash_; }
  std::uint64_t sum() const { return sum_; }

 private:
  static constexpr std::uint32_t kStampBits = 16;
  static constexpr std::uint64_t kStampMask = (1u << kStampBits) - 1;

  static std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  }

  void blast(qc::congest::NodeContext& ctx) const {
    qc::congest::Message m;
    m.push(ctx.id(), ctx.id_bits());
    m.push((ctx.round() + salt_) & kStampMask, kStampBits);
    ctx.broadcast(m);
  }

  std::uint64_t salt_;
  std::uint64_t hash_ = 0;
  std::uint64_t sum_ = 0;
};

/// Totals of one flood run, read back through program_as.
struct FloodTotals {
  std::uint64_t hash = 0;  ///< sum of per-node hashes
  std::uint64_t sum = 0;   ///< sum of per-node payload sums

  bool operator==(const FloodTotals&) const = default;
};

template <typename Net>
FloodTotals flood_totals(Net& net) {
  FloodTotals t;
  for (qc::graph::NodeId v = 0; v < net.n(); ++v) {
    const auto& p = net.template program_as<Flood>(v);
    t.hash += p.hash();
    t.sum += p.sum();
  }
  return t;
}

inline std::unique_ptr<qc::congest::NodeProgram> make_flood(std::uint64_t salt) {
  return std::make_unique<Flood>(salt);
}

}  // namespace e2e
