#include "congest/metrics_observer.hpp"

#include <algorithm>
#include <string_view>

namespace qc::congest {

namespace {

// Round-level bucket bounds: deliveries per round grow with n, so cover a
// generous power-of-two range; message sizes are O(log n) bits under the
// model, so a finer linear-ish ladder resolves bandwidth occupancy.
const std::vector<double> kRoundBounds = {1,    2,    4,     8,     16,
                                          32,   64,   128,   256,   512,
                                          1024, 4096, 16384, 65536, 262144};
const std::vector<double> kBitsBounds = {8,    16,    32,    64,     128,
                                         256,  1024,  4096,  16384,  65536,
                                         262144, 1048576, 4194304};
const std::vector<double> kMessageBitsBounds = {1,  2,  4,  8,  12, 16, 20,
                                                24, 32, 40, 48, 64, 96, 128};

/// Writes the values of `seen` as one batched observation per distinct
/// value, then empties it.
void observe_tally(metrics::MetricsRegistry* reg, std::string_view name,
                   std::vector<std::uint64_t>& seen) {
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size();) {
    std::size_t j = i;
    while (j < seen.size() && seen[j] == seen[i]) ++j;
    reg->observe(name, static_cast<double>(seen[i]), j - i);
    i = j;
  }
  seen.clear();
}

}  // namespace

MetricsObserver::MetricsObserver(metrics::MetricsRegistry* reg) : reg_(reg) {
  reg_->register_histogram("congest.round_messages", kRoundBounds);
  reg_->register_histogram("congest.round_bits", kBitsBounds);
  reg_->register_histogram("congest.message_bits", kMessageBitsBounds);
}

void MetricsObserver::on_deliver(graph::NodeId /*from*/, graph::NodeId /*to*/,
                                 const Message& msg, std::uint32_t round) {
  if (open_ && round != current_round_) close_round();
  open_ = true;
  current_round_ = round;
  const std::uint32_t bits = msg.size_bits();
  ++round_messages_;
  round_bits_ += bits;
  if (bits >= message_bits_.size()) message_bits_.resize(bits + 1, 0);
  ++message_bits_[bits];
}

void MetricsObserver::close_round() {
  if (!open_) return;
  closed_round_messages_.push_back(round_messages_);
  closed_round_bits_.push_back(round_bits_);
  round_messages_ = 0;
  round_bits_ = 0;
  open_ = false;
}

void MetricsObserver::flush() {
  close_round();
  for (std::size_t b = 0; b < message_bits_.size(); ++b) {
    if (message_bits_[b] == 0) continue;
    reg_->observe("congest.message_bits", static_cast<double>(b),
                  message_bits_[b]);
    message_bits_[b] = 0;
  }
  observe_tally(reg_, "congest.round_messages", closed_round_messages_);
  observe_tally(reg_, "congest.round_bits", closed_round_bits_);
}

}  // namespace qc::congest
