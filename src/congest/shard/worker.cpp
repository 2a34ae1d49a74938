#include "congest/shard/worker.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <vector>

#include "congest/shard/codec.hpp"
#include "serve/protocol.hpp"
#include "util/alloc_probe.hpp"
#include "util/error.hpp"

namespace qc::congest::shard {

namespace {

/// Placeholder for nodes this worker does not own: a correctly driven
/// worker never runs deliver/compute over foreign ranges, so on_round is
/// unreachable; the placeholder only keeps the replica's program table
/// fully populated (init_programs requires it) at zero state.
class InertProgram final : public NodeProgram {
 public:
  void on_round(NodeContext&) override {
    throw InternalError("shard worker: a foreign node's program ran");
  }
};

/// One worker process's whole state: the Network replica, its boundary
/// slot tables, and the reusable frame/scratch storage — each reserved at
/// construction to the CONGEST bound — that keeps the round loop off the
/// heap.
class WorkerState {
 public:
  WorkerState(const WorkerLink& link, const graph::Graph& g,
              const NetworkConfig& net_cfg, const ShardAssignment& asn,
              const std::function<std::unique_ptr<NodeProgram>(NodeId)>& make)
      : link_(link),
        begin_(asn.begin(link.shard)),
        end_(asn.end(link.shard)),
        net_(g, net_cfg) {
    // The user observer lives coordinator-side; with collect_events the
    // worker records deliveries into sink_ and ships them instead.
    net_.shard_drop_observers();
    net_.init_programs([&](NodeId v) -> std::unique_ptr<NodeProgram> {
      if (asn.owns(link_.shard, v)) return make(v);
      return std::make_unique<InertProgram>();
    });

    // Outbound boundary slots (owned sender -> foreign receiver) grouped
    // by the receiver's shard, and the set of slots boundary traffic may
    // inject into (foreign sender -> owned receiver). Any other injected
    // slot is a protocol violation.
    out_slots_.resize(asn.shards);
    inbound_ok_.assign(net_.shard_slot_count(), 0);
    std::size_t out_arcs = 0;
    std::size_t owned_in_arcs = 0;
    for (NodeId u = begin_; u < end_; ++u) {
      const auto nb = g.neighbors(u);
      owned_in_arcs += nb.size();
      const std::uint32_t base = net_.shard_out_base(u);
      for (std::uint32_t p = 0; p < nb.size(); ++p) {
        const NodeId v = nb[p];
        if (asn.owns(link_.shard, v)) continue;
        out_slots_[asn.owner(v)].push_back(base + p);
        ++out_arcs;
        // The foreign sender v queues for u in slot out_base(v) + port,
        // where port is u's position in v's sorted neighbor list.
        const auto vnb = g.neighbors(v);
        const auto it = std::lower_bound(vnb.begin(), vnb.end(), u);
        inbound_ok_[net_.shard_out_base(v) +
                    static_cast<std::uint32_t>(it - vnb.begin())] = 1;
      }
    }

    // One message per boundary arc and one event per owned in-arc bound
    // every round's traffic, so these never grow after this point.
    const std::size_t in_arcs = out_arcs;  // arcs are symmetric
    const std::size_t event_arcs = link_.collect_events ? owned_in_arcs : 0;
    out_.resize(asn.shards);
    for (std::uint32_t t = 0; t < asn.shards; ++t) {
      out_[t].reserve(out_slots_[t].size());
    }
    in_.reserve(in_arcs);
    rx_.reserve(round_begin_bound(in_arcs));
    tx_.reserve(round_end_bound(out_arcs, asn.shards, event_arcs));
    sink_.reserve(event_arcs);
    re_.events.reserve(event_arcs);
  }

  /// Frame service loop; returns the worker's exit code.
  int serve() {
    for (;;) {
      if (!serve::read_frame(link_.fd, rx_, kMaxShardFrameBytes)) {
        return 0;  // coordinator closed its end: clean teardown
      }
      const ShardOp op = decode_op(rx_);
      switch (op) {
        case ShardOp::kStart:
          decode_empty(rx_, ShardOp::kStart);
          handle_start();
          break;
        case ShardOp::kRoundBegin:
          decode_round_begin_into(rx_, rb_, in_);
          handle_round();
          break;
        case ShardOp::kHarvest:
          decode_empty(rx_, ShardOp::kHarvest);
          handle_harvest();
          break;
        case ShardOp::kShutdown:
          decode_empty(rx_, ShardOp::kShutdown);
          return 0;
        default:
          throw serve::ProtocolError(
              std::string("shard worker: unexpected op ") +
              shard_op_name(op));
      }
    }
  }

 private:
  void reply() { serve::write_frame(link_.fd, tx_, kMaxShardFrameBytes); }

  /// Moves this round's queued outbound boundary messages into out_, by
  /// receiving shard, for the coordinator to relay.
  void extract_boundary() {
    for (std::size_t t = 0; t < out_slots_.size(); ++t) {
      out_[t].clear();
      for (const std::uint32_t slot : out_slots_[t]) {
        if (!net_.shard_slot_pending(slot)) continue;
        out_[t].push_back({slot, net_.shard_slot_message(slot)});
        net_.shard_clear_slot(slot);
      }
    }
  }

  void handle_start() {
    net_.shard_start_range(begin_, end_);
    extract_boundary();
    encode_start_done({net_.shard_inflight(), net_.shard_halted(),
                       net_.shard_wakes()},
                      out_, tx_);
    reply();
  }

  void handle_round() {
    if (rb_.round != net_.shard_round() + 1) {
      throw serve::ProtocolError(
          "shard worker: coordinator round out of sequence");
    }
    for (const BoundaryEntry& e : in_) {
      if (e.slot >= inbound_ok_.size() || !inbound_ok_[e.slot]) {
        throw serve::ProtocolError(
            "shard worker: injected slot is not an inbound boundary slot "
            "of this shard");
      }
      net_.shard_inject_slot(e.slot, e.msg);
    }
    net_.shard_set_memory_audit(rb_.memory_audit);
    net_.shard_begin_round();
    re_.round = rb_.round;
    re_.stats = RunStats{};
    sink_.clear();
    net_.shard_deliver_range(begin_, end_, re_.stats,
                             link_.collect_events ? &sink_ : nullptr);
    net_.shard_compute_range(begin_, end_, re_.stats, rb_.memory_sweep_all);
    extract_boundary();
    re_.inflight = net_.shard_inflight();
    re_.halted = net_.shard_halted();
    re_.wakes = net_.shard_wakes();
    re_.events.clear();
    for (const auto& d : sink_) {
      re_.events.push_back(
          DeliveryEvent{d.from, d.to, net_.shard_inbox_message(d)});
    }
    encode_round_end(re_, out_, tx_);
    reply();
    verify_steady_state_allocs();
  }

  void handle_harvest() {
    alloc_armed_ = false;  // building the reply allocates; re-arm next round
    std::vector<Message> states(end_ - begin_);
    for (NodeId v = begin_; v < end_; ++v) {
      net_.program(v).serialize_state(states[v - begin_]);
    }
    serve::write_frame(link_.fd, encode_harvest_done(states),
                       kMaxShardFrameBytes);
  }

  /// The alloc_probe discipline applied to the whole worker round: once
  /// past the arm round, every round must be allocation-free — round
  /// frames and boundary batches only ever use the buffers reserved at
  /// construction. A harvest between phases allocates its reply, so it
  /// disarms until the next round re-arms.
  void verify_steady_state_allocs() {
    const std::uint32_t arm = link_.verify_zero_alloc_from_round;
    if (arm == 0 || rb_.round < arm) return;
    const std::uint64_t now = qc::alloc_probe_count();
    if (alloc_armed_ && now != alloc_mark_) {
      throw Error("shard worker: steady-state round " +
                  std::to_string(rb_.round) + " performed " +
                  std::to_string(now - alloc_mark_) +
                  " heap allocation(s); the round loop must be "
                  "allocation-free");
    }
    alloc_mark_ = now;
    alloc_armed_ = true;
  }

  WorkerLink link_;
  NodeId begin_;  ///< this worker owns [begin_, end_)
  NodeId end_;
  Network net_;

  std::vector<std::vector<std::uint32_t>> out_slots_;
  std::vector<std::uint8_t> inbound_ok_;

  RoundBeginFrame rb_;
  RoundEndFrame re_;
  std::vector<BoundaryEntry> in_;
  Outbound out_;
  std::vector<Network::PendingDelivery> sink_;
  std::vector<std::uint8_t> rx_;
  std::vector<std::uint8_t> tx_;
  bool alloc_armed_ = false;
  std::uint64_t alloc_mark_ = 0;
};

}  // namespace

int run_worker(
    const WorkerLink& link, const graph::Graph& g,
    const NetworkConfig& net_cfg, const ShardAssignment& asn,
    const std::function<std::unique_ptr<NodeProgram>(NodeId)>& make) noexcept {
  try {
    WorkerState state(link, g, net_cfg, asn, make);
    return state.serve();
  } catch (const std::exception& e) {
    // Best effort: if the coordinator is already gone, the nonzero exit
    // code still reaches waitpid.
    try {
      serve::write_frame(link.fd, encode_error(e.what()), kMaxShardFrameBytes);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    return 1;
  }
}

}  // namespace qc::congest::shard
