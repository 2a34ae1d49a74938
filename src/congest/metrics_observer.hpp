#pragma once

#include <cstdint>
#include <vector>

#include "congest/observer.hpp"
#include "util/metrics.hpp"

namespace qc::congest {

/// Streams per-round delivery histograms into a MetricsRegistry through
/// the engine-agnostic DeliveryObserver seam:
///
///  * "congest.round_messages"  — messages delivered per executed round,
///  * "congest.round_bits"     — bits delivered per executed round,
///  * "congest.message_bits"   — per-message bandwidth occupancy.
///
/// The Network attaches one instance automatically (composed with any
/// caller-supplied observer) whenever a global metrics registry is
/// installed, so it sees the network's deterministic event stream;
/// drop/corruption/violation totals — which observers never see — are
/// recorded by the Network itself as labeled counters at each phase end.
///
/// Deliveries are tallied locally — message sizes by value, per-round
/// totals as a list — and written to the registry only at flush(), one
/// batched observe per distinct value. The per-delivery path therefore
/// never takes the registry lock, which parallel branch simulations
/// would otherwise contend on. Values are integers, so the batched sums
/// are exact and the export is identical to observing one by one.
///
/// Not thread-safe by itself, and does not need to be: a Network invokes
/// observers from a single thread (see DeliveryObserver). The
/// registry behind it is thread-safe, so several Networks (e.g. parallel
/// branch simulations) may each own an instance against the same
/// registry; histogram merges are order-independent, keeping exported
/// totals deterministic at any thread count.
class MetricsObserver final : public DeliveryObserver {
 public:
  explicit MetricsObserver(metrics::MetricsRegistry* reg);

  void on_deliver(graph::NodeId from, graph::NodeId to, const Message& msg,
                  std::uint32_t round) override;

  /// Closes the still-open round and writes every tally to the registry;
  /// the Network calls this at the end of every execution phase.
  /// Idempotent.
  void flush();

 private:
  void close_round();

  metrics::MetricsRegistry* reg_;
  std::uint32_t current_round_ = 0;
  std::uint64_t round_messages_ = 0;
  std::uint64_t round_bits_ = 0;
  bool open_ = false;
  /// message_bits_[b] = deliveries of a b-bit message since the last flush.
  std::vector<std::uint64_t> message_bits_;
  /// Totals of the rounds closed since the last flush.
  std::vector<std::uint64_t> closed_round_messages_;
  std::vector<std::uint64_t> closed_round_bits_;
};

}  // namespace qc::congest
