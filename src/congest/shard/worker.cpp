#include "congest/shard/worker.hpp"

#include <poll.h>

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

constexpr int kWaitSliceMs = 100;

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

/// One worker process's whole state: the Network replica, its view of the
/// shared transport, and the reusable frame/scratch storage that keeps the
/// steady-state round loop off the heap.
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

    const ShmLayout& l = *link_.layout;
    c2w_ = ShmChannel(link_.shm + l.c2w[link_.shard].off,
                      l.c2w[link_.shard].cap);
    w2c_ = ShmChannel(link_.shm + l.w2c[link_.shard].off,
                      l.w2c[link_.shard].cap);
    mesh_out_.resize(l.shards);
    mesh_in_.resize(l.shards);
    for (std::uint32_t t = 0; t < l.shards; ++t) {
      const auto& out = l.mesh_seg(link_.shard, t);
      if (out.cap != 0) {
        mesh_out_[t] = MeshRing(link_.shm + out.off, out.cap);
        out_peers_.push_back(t);
      }
      const auto& in = l.mesh_seg(t, link_.shard);
      if (in.cap != 0) {
        mesh_in_[t] = MeshRing(link_.shm + in.off, in.cap);
        in_peers_.push_back(t);
      }
    }

    // Outbound boundary slots (owned sender -> foreign receiver) grouped
    // by the receiver's shard — the mesh segment they ship through — and
    // the set of slots boundary traffic may inject into (foreign sender ->
    // owned receiver). Anything outside that set arriving over any
    // transport is a protocol violation.
    out_slots_.resize(l.shards);
    inbound_ok_.assign(net_.shard_slot_count(), 0);
    for (NodeId u = begin_; u < end_; ++u) {
      const auto nb = g.neighbors(u);
      const std::uint32_t base = net_.shard_out_base(u);
      for (std::uint32_t p = 0; p < nb.size(); ++p) {
        const NodeId v = nb[p];
        if (asn.owns(link_.shard, v)) continue;
        out_slots_[asn.owner(v)].push_back(base + p);
        // The foreign sender v queues for u in slot out_base(v) + port,
        // where port is u's position in v's sorted neighbor list.
        const auto vnb = g.neighbors(v);
        const auto it = std::lower_bound(vnb.begin(), vnb.end(), u);
        inbound_ok_[net_.shard_out_base(v) +
                    static_cast<std::uint32_t>(it - vnb.begin())] = 1;
      }
    }
  }

  /// Frame service loop; returns the worker's exit code.
  int serve() {
    for (;;) {
      ShmSignal sig = c2w_.wait(kWaitSliceMs);
      bool hinted = true;
      if (sig == ShmSignal::kNone) {
        if (!socket_ready()) continue;
        // The hint is published before the socket write, so visible
        // socket bytes normally mean a visible hint; re-check, and treat
        // a hintless frame (the teardown fallback when the channel was
        // busy) as a plain socket frame.
        sig = c2w_.poll();
        if (sig == ShmSignal::kNone) {
          hinted = false;
          sig = ShmSignal::kSocket;
        }
      }
      std::span<const std::uint8_t> payload;
      if (sig == ShmSignal::kFrame) {
        payload = c2w_.frame();
      } else {
        if (!serve::read_frame(link_.fd, rx_, kMaxShardFrameBytes)) {
          return 0;  // coordinator closed its end: clean teardown
        }
        payload = rx_;
      }
      // Each handler finishes copying out of `payload` before release()
      // makes the channel reusable — the coordinator may publish the next
      // control frame the moment it has this round's replies.
      const ShardOp op = decode_op(payload);
      switch (op) {
        case ShardOp::kStart:
          decode_empty(payload, ShardOp::kStart);
          if (hinted) c2w_.release();
          handle_start();
          break;
        case ShardOp::kRoundBegin:
          // Round frames always fit their slot; one on the socket is a
          // peer that does not follow the protocol.
          if (sig != ShmSignal::kFrame) {
            throw serve::ProtocolError(
                "shard worker: round_begin arrived over the socket");
          }
          decode_round_begin_into(payload, rb_);
          if (hinted) c2w_.release();
          handle_round();
          break;
        case ShardOp::kHarvest:
          decode_empty(payload, ShardOp::kHarvest);
          if (hinted) c2w_.release();
          handle_harvest();
          break;
        case ShardOp::kShutdown:
          decode_empty(payload, ShardOp::kShutdown);
          if (hinted) c2w_.release();
          return 0;
        default:
          throw serve::ProtocolError(
              std::string("shard worker: unexpected op ") +
              shard_op_name(op));
      }
    }
  }

  /// Best-effort error report: the frame goes over the socket (always
  /// writable regardless of channel state) and the doorbell is rung so a
  /// coordinator sleeping on this channel wakes up to find it. A busy
  /// channel holds a publication the coordinator has yet to consume, so
  /// it wakes anyway; the unhinted frame then reaches it through the
  /// socket (check_liveness).
  void report_error(const char* what) {
    try {
      serve::write_frame(link_.fd, encode_error(what), kMaxShardFrameBytes);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    if (w2c_.valid()) w2c_.try_publish_signal(ShmSignal::kSocket);
  }

 private:
  bool socket_ready() const {
    pollfd p{};
    p.fd = link_.fd;
    p.events = POLLIN;
    return ::poll(&p, 1, 0) > 0 &&
           (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
  }

  /// Ships a lifecycle reply: through the w2c ring when it fits, else
  /// hinted over the socket (a large harvest_done). The ping-pong protocol
  /// guarantees the ring is idle at every legitimate reply point.
  void send_reply(std::span<const std::uint8_t> payload) {
    if (payload.size() <= w2c_.capacity()) {
      auto buf = w2c_.buffer();
      std::copy(payload.begin(), payload.end(), buf.begin());
      w2c_.publish_frame(payload.size());
      return;
    }
    w2c_.publish_signal(ShmSignal::kSocket);  // before the write: see wait()
    serve::write_frame(link_.fd, payload, kMaxShardFrameBytes);
  }

  /// Moves this round's queued outbound boundary messages into the mesh
  /// segments, stamped for the round that will consume them. A segment
  /// holds one full-size message per boundary arc, so the batch always
  /// fits. Every existing segment gets exactly one publication per round —
  /// consumers validate the stamp, so a skipped publication would
  /// (correctly) kill the run.
  void ship_boundary(std::uint32_t consume_round) {
    boundary_bytes_ = 0;
    boundary_msgs_ = 0;
    for (const std::uint32_t t : out_peers_) {
      MeshRing& ring = mesh_out_[t];
      MeshWriter w(ring.produce_buffer(consume_round), consume_round);
      for (const std::uint32_t slot : out_slots_[t]) {
        if (!net_.shard_slot_pending(slot)) continue;
        w.add(slot, net_.shard_slot_message(slot));
        net_.shard_clear_slot(slot);
      }
      const std::size_t len = w.finish();
      boundary_bytes_ += len;
      boundary_msgs_ += w.count();
      ring.publish(consume_round, len);
    }
  }

  /// Injects one mesh batch worth of inbound boundary traffic, validating
  /// every entry against the inbound slot set.
  void drain_mesh(std::uint32_t round) {
    for (const std::uint32_t s : in_peers_) {
      MeshReader r(mesh_in_[s].consume(round), round);
      std::uint32_t slot = 0;
      while (r.next(slot, scratch_msg_)) {
        check_inbound(slot);
        net_.shard_inject_slot(slot, scratch_msg_);
      }
    }
  }

  void check_inbound(std::uint32_t slot) const {
    if (slot >= inbound_ok_.size() || !inbound_ok_[slot]) {
      throw serve::ProtocolError(
          "shard worker: injected slot is not an inbound boundary slot of "
          "this shard");
    }
  }

  void handle_start() {
    net_.shard_start_range(begin_, end_);
    StartDoneFrame f;
    ship_boundary(/*consume_round=*/1);
    start_boundary_bytes_ = boundary_bytes_;
    start_boundary_msgs_ = boundary_msgs_;
    f.inflight = net_.shard_inflight();
    f.halted = net_.shard_halted();
    f.wakes = net_.shard_wakes();
    send_reply(encode_start_done(f));
  }

  void handle_round() {
    if (rb_.round != net_.shard_round() + 1) {
      throw serve::ProtocolError(
          "shard worker: coordinator round out of sequence");
    }
    drain_mesh(rb_.round);
    net_.shard_set_memory_audit(rb_.memory_audit);
    net_.shard_begin_round();
    re_.round = rb_.round;
    re_.stats = RunStats{};
    sink_.clear();
    net_.shard_deliver_range(begin_, end_, re_.stats,
                             link_.collect_events ? &sink_ : nullptr);
    net_.shard_compute_range(begin_, end_, re_.stats, rb_.memory_sweep_all);
    ship_boundary(/*consume_round=*/rb_.round + 1);
    re_.inflight = net_.shard_inflight();
    re_.halted = net_.shard_halted();
    re_.wakes = net_.shard_wakes();
    re_.boundary_bytes = boundary_bytes_ + start_boundary_bytes_;
    re_.boundary_msgs = boundary_msgs_ + start_boundary_msgs_;
    start_boundary_bytes_ = start_boundary_msgs_ = 0;
    re_.events.clear();
    if (link_.collect_events) {
      re_.events.reserve(sink_.size());
      for (const auto& d : sink_) {
        re_.events.push_back(
            DeliveryEvent{d.from, d.to, net_.shard_inbox_message(d)});
      }
    }
    // The w2c slot is sized for the fixed fields plus one event per owned
    // in-arc, so round_end always fits.
    w2c_.publish_frame(encode_round_end_to(w2c_.buffer(), re_));
    verify_steady_state_allocs();
  }

  void handle_harvest() {
    alloc_armed_ = false;  // building the reply allocates; re-arm next round
    HarvestDoneFrame f;
    for (NodeId v = begin_; v < end_; ++v) {
      Message m;
      net_.program(v).serialize_state(m);
      f.states.push_back(std::move(m));
    }
    send_reply(encode_harvest_done(f));
  }

  /// The alloc_probe discipline applied to the whole worker round: once
  /// past the arm round, every round must be allocation-free — round
  /// frames and boundary batches only ever use the shm slots. A harvest
  /// between phases allocates its reply, so it disarms until the next
  /// round re-arms.
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

  ShmChannel c2w_;
  ShmChannel w2c_;
  std::vector<MeshRing> mesh_out_;
  std::vector<MeshRing> mesh_in_;
  std::vector<std::uint32_t> out_peers_;
  std::vector<std::uint32_t> in_peers_;
  std::vector<std::vector<std::uint32_t>> out_slots_;
  std::vector<std::uint8_t> inbound_ok_;

  RoundBeginFrame rb_;
  RoundEndFrame re_;
  std::vector<Network::PendingDelivery> sink_;
  Message scratch_msg_;
  std::vector<std::uint8_t> rx_;
  std::uint64_t boundary_bytes_ = 0;
  std::uint64_t boundary_msgs_ = 0;
  std::uint64_t start_boundary_bytes_ = 0;
  std::uint64_t start_boundary_msgs_ = 0;
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
    try {
      return state.serve();
    } catch (const std::exception& e) {
      state.report_error(e.what());
      return 1;
    }
  } catch (const std::exception& e) {
    // Construction failed before the transport existed; the socket is the
    // only channel there is. If it is already gone the nonzero exit code
    // still reaches waitpid.
    try {
      serve::write_frame(link.fd, encode_error(e.what()), kMaxShardFrameBytes);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    return 1;
  }
}

}  // namespace qc::congest::shard
