#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "congest/network.hpp"

namespace qc::congest {

/// One delivered message, as seen by a TraceRecorder.
struct TraceEvent {
  std::uint32_t round = 0;
  graph::NodeId from = 0;
  graph::NodeId to = 0;
  std::uint32_t bits = 0;

  bool operator==(const TraceEvent&) const = default;
};

/// Records every delivery of the executions it observes — the raw material
/// for the lower-bound audits (information light cones, per-block cut
/// traffic) and for debugging distributed algorithms round by round.
///
/// Like commcc::CutMeter, arm() returns a NetworkConfig with the recorder
/// installed (composed with any observer already present); the recorder
/// accumulates across all executions run under that config. Works
/// in-process and sharded — the shard coordinator replays the same event
/// stream the in-process network delivers.
class TraceRecorder {
 public:
  TraceRecorder() : sink_(std::make_shared<Sink>()) {}

  NetworkConfig arm(NetworkConfig base) const {
    base.observer = MultiObserver::combine(std::move(base.observer), sink_);
    return base;
  }

  /// The recorder as a plain observer, for manual composition.
  std::shared_ptr<DeliveryObserver> observer() const { return sink_; }

  const std::vector<TraceEvent>& events() const { return sink_->events; }

  /// Largest round index observed (tracked incrementally, O(1)).
  std::uint32_t last_round() const { return sink_->last_round; }

  /// Total delivered bits per round (index 0 unused; rounds are 1-based).
  std::vector<std::uint64_t> bits_per_round() const {
    std::vector<std::uint64_t> out(sink_->last_round + 1, 0);
    for (const auto& e : sink_->events) out[e.round] += e.bits;
    return out;
  }

  void clear() {
    sink_->events.clear();
    sink_->last_round = 0;
  }

 private:
  struct Sink final : DeliveryObserver {
    void on_deliver(graph::NodeId from, graph::NodeId to, const Message& msg,
                    std::uint32_t round) override {
      events.push_back(TraceEvent{round, from, to, msg.size_bits()});
      if (round > last_round) last_round = round;
    }

    std::vector<TraceEvent> events;
    std::uint32_t last_round = 0;
  };

  std::shared_ptr<Sink> sink_;
};

}  // namespace qc::congest
