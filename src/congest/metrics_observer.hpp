#pragma once

#include <cstdint>

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

  /// Flushes the still-open round's totals; the Network calls this at the
  /// end of every execution phase. Idempotent.
  void flush();

 private:
  metrics::MetricsRegistry* reg_;
  std::uint32_t current_round_ = 0;
  std::uint64_t round_messages_ = 0;
  std::uint64_t round_bits_ = 0;
  bool open_ = false;
};

}  // namespace qc::congest
