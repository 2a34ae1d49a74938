#include "congest/network.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <sstream>

#include "congest/metrics_observer.hpp"
#include "util/metrics.hpp"

namespace qc::congest {

bool neighbors_strictly_sorted(std::span<const graph::NodeId> neighbors) {
  return std::adjacent_find(neighbors.begin(), neighbors.end(),
                            std::greater_equal<graph::NodeId>()) ==
         neighbors.end();
}

std::vector<std::vector<std::uint32_t>> build_reverse_ports(
    std::span<const std::vector<graph::NodeId>> adjacency) {
  const std::size_t n = adjacency.size();
  std::vector<std::vector<std::uint32_t>> reverse(n);
  for (std::size_t w = 0; w < n; ++w) {
    const auto& nb = adjacency[w];
    require(neighbors_strictly_sorted(nb),
            "build_reverse_ports: adjacency lists must be strictly sorted "
            "(port numbering and the reverse-port table both rely on it; an "
            "unsorted list would silently misroute messages)");
    reverse[w].resize(nb.size());
    for (std::size_t p = 0; p < nb.size(); ++p) {
      const graph::NodeId u = nb[p];
      require(u < n, "build_reverse_ports: adjacency names an unknown node");
      const auto& unb = adjacency[u];
      const auto it = std::lower_bound(unb.begin(), unb.end(),
                                       static_cast<graph::NodeId>(w));
      require(it != unb.end() && *it == static_cast<graph::NodeId>(w),
              "build_reverse_ports: adjacency is not symmetric (a node "
              "lists a neighbor whose list omits the reverse edge)");
      reverse[w][p] = static_cast<std::uint32_t>(it - unb.begin());
    }
  }
  return reverse;
}

std::uint32_t NodeContext::port_to(NodeId v) const {
  const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), v);
  require(it != neighbors_.end() && *it == v,
          "NodeContext::port_to: not adjacent to that node");
  return static_cast<std::uint32_t>(it - neighbors_.begin());
}

void NodeContext::send(std::uint32_t port, Message msg) {
  require(port < degree(), "NodeContext::send: port out of range");
  require(!port_used_[port],
          "NodeContext::send: at most one message per port per round");
  outbox_[port] = std::move(msg);
  port_used_[port] = 1;
  ++pending_sends_;  // drained into the quiescence counter per slice
}

void NodeContext::broadcast(const Message& msg) {
  // Copy-assigns straight into each outbox slot instead of routing through
  // send(): the by-value Message parameter there costs a second copy per
  // port, and broadcast is the hot send primitive of flooding workloads.
  const std::uint32_t deg = degree();
  for (std::uint32_t p = 0; p < deg; ++p) {
    require(!port_used_[p],
            "NodeContext::send: at most one message per port per round");
    outbox_[p] = msg;
    port_used_[p] = 1;
  }
  pending_sends_ += deg;
}

void NodeProgram::serialize_state(Message&) const {
  throw Error(
      "NodeProgram::serialize_state: this program does not implement shard "
      "state transfer (required to read results from a sharded run)");
}

void NodeProgram::restore_state(const Message&) {
  throw Error(
      "NodeProgram::restore_state: this program does not implement shard "
      "state transfer (required to read results from a sharded run)");
}

RunStats& RunStats::operator+=(const RunStats& other) {
  rounds += other.rounds;
  messages += other.messages;
  bits += other.bits;
  max_edge_bits = std::max(max_edge_bits, other.max_edge_bits);
  violations += other.violations;
  quiesced = other.quiesced;
  max_node_memory_bits =
      std::max(max_node_memory_bits, other.max_node_memory_bits);
  messages_dropped += other.messages_dropped;
  messages_corrupted += other.messages_corrupted;
  crashed_node_rounds += other.crashed_node_rounds;
  return *this;
}

Network::Network(const graph::Graph& g, NetworkConfig cfg)
    : graph_(&g), cfg_(std::move(cfg)) {
  bandwidth_bits_ = cfg_.bandwidth_bits != 0
                        ? cfg_.bandwidth_bits
                        : qc::congest_bandwidth_bits(g.n());
  require(cfg_.fault.drop_probability >= 0.0 &&
              cfg_.fault.drop_probability <= 1.0,
          "Network: fault drop_probability must be in [0,1]");
  require(cfg_.fault.corrupt_probability >= 0.0 &&
              cfg_.fault.corrupt_probability <= 1.0,
          "Network: fault corrupt_probability must be in [0,1]");
  for (const auto& w : cfg_.fault.crashes) {
    require(w.node < g.n(), "Network: crash schedule names unknown node");
    require(w.crash_round >= 1, "Network: crash rounds are 1-based");
    require(w.recover_round == 0 || w.recover_round > w.crash_round,
            "Network: crash window must recover after it crashes");
  }
  fault_enabled_ = cfg_.fault.enabled();
  crash_index_ = CrashIndex(cfg_.fault, g.n());
  if (auto* m = metrics::global()) {
    // Observe-only: composing the histogram observer into the delivery
    // seam never alters inboxes, stats or round accounting, so every
    // execution stays bit-identical to a metrics-off run.
    metrics_observer_ = std::make_shared<MetricsObserver>(m);
    cfg_.observer =
        MultiObserver::combine(std::move(cfg_.observer), metrics_observer_);
  }
  contexts_.resize(g.n());
  std::vector<std::vector<NodeId>> adjacency(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    adjacency[v].assign(nb.begin(), nb.end());
  }
  // Validates sortedness and symmetry of every adjacency list, then gives
  // delivery O(1) access to the sender's outbox slot for each edge.
  const auto reverse_ports = build_reverse_ports(adjacency);
  out_base_.resize(g.n());
  std::uint32_t slots = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    out_base_[v] = slots;
    slots += static_cast<std::uint32_t>(adjacency[v].size());
  }
  outbox_flat_.resize(slots);
  port_used_flat_.assign(slots, 0);
  for (NodeId v = 0; v < g.n(); ++v) {
    auto& ctx = contexts_[v];
    ctx.id_ = v;
    ctx.n_ = g.n();
    ctx.neighbors_ = std::move(adjacency[v]);
    ctx.outbox_ = outbox_flat_.data() + out_base_[v];
    ctx.port_used_ = port_used_flat_.data() + out_base_[v];
    // Fuse the reverse-port table with the flat-slot offsets: the slot
    // receiver v pulls from on port p is one array index away.
    ctx.in_slot_.resize(ctx.neighbors_.size());
    for (std::size_t p = 0; p < ctx.neighbors_.size(); ++p) {
      ctx.in_slot_[p] = out_base_[ctx.neighbors_[p]] + reverse_ports[v][p];
    }
    ctx.quiesce_ = quiesce_.get();
  }
  reseed_node_rngs();
  programs_.resize(g.n());
}

void Network::reseed_node_rngs() {
  Rng master(cfg_.seed);
  for (NodeId v = 0; v < n(); ++v) contexts_[v].rng_ = master.child(v);
}

void Network::init_programs(
    const std::function<std::unique_ptr<NodeProgram>(NodeId)>& make) {
  for (NodeId v = 0; v < n(); ++v) {
    programs_[v] = make(v);
    require(programs_[v] != nullptr,
            "Network::init_programs: factory returned null");
    auto& ctx = contexts_[v];
    ctx.round_ = 0;
    ctx.inbox_.clear();
    ctx.pending_sends_ = 0;
    ctx.halted_ = false;
  }
  // A mid-run re-init may leave queued-but-undelivered slots behind; wipe
  // the flat flags so the self-clearing invariant restarts from empty.
  std::fill(port_used_flat_.begin(), port_used_flat_.end(), std::uint8_t{0});
  quiesce_->inflight.store(0, std::memory_order_relaxed);
  quiesce_->halted.store(0, std::memory_order_relaxed);
  memory_audit_ = true;
  // Restart the per-node RNG streams from the master seed so a rerun of a
  // randomized program on the same Network reproduces the first run
  // bit-for-bit (the constructor seeds identically, so run one after
  // construction is unaffected).
  reseed_node_rngs();
  round_ = 0;
  stats_ = RunStats{};
  started_ = false;
}

bool Network::all_quiet_scan() const {
  for (NodeId v = 0; v < n(); ++v) {
    if (!contexts_[v].halted_) return false;
  }
  for (const std::uint8_t used : port_used_flat_) {
    if (used) return false;
  }
  return true;
}

bool Network::all_quiet() const {
  const bool quiet =
      quiesce_->halted.load(std::memory_order_relaxed) ==
          static_cast<std::int64_t>(n()) &&
      quiesce_->inflight.load(std::memory_order_relaxed) == 0;
  // The counters are the old scan incrementally maintained; keep the scan
  // as the debug-build ground truth. (inflight counts un-consumed outbox
  // slots, but at every all_quiet call site delivery has consumed all
  // slots of the previous round and only fresh sends remain, so the two
  // formulations agree exactly.)
  assert(quiet == all_quiet_scan());
  return quiet;
}

void Network::deliver_range(std::uint32_t begin, std::uint32_t end,
                            RunStats& local,
                            std::vector<PendingDelivery>* sink) {
  // Receiver-driven delivery: node w pulls, in port order, the message its
  // neighbor queued for it last round. Port-order assembly makes the inbox
  // deterministic regardless of how receivers are split into ranges.
  // Observer events either fire inline (sink == nullptr) or are recorded
  // into the sink — a shard worker ships them to the coordinator, which
  // replays them in receiver order — the same (round, to, from) order
  // either way. Fault decisions are stateless hashes of (seed, round, from,
  // to), so they do not depend on the range split either. Crash checks go
  // through the per-round CrashIndex (refreshed at round start) instead of
  // scanning the crash list per edge.
  //
  // The common path is allocation-free and O(1) per edge: the sender's
  // outbox slot is one flat array index away (in_slot_, the precomputed
  // reverse-port table fused with the slot offsets — no binary search, no
  // detour through the sender's NodeContext) and is *moved* into the
  // receiver's inbox — each directed edge has exactly one receiver, so the
  // slot is consumed exactly once per round; the receiver clears the used
  // flag as it consumes, and the sender only writes it again in the
  // compute phase that follows. Only bandwidth truncation builds a new
  // message; fault corruption flips a bit in the inbox slot in place.
  // Consumed messages are counted locally and drained into the quiescence
  // counter once per call, not once per message.
  // Loop-invariant members hoisted into locals: the compiler cannot keep
  // them in registers itself because the opaque calls in the loop body
  // (observer virtual call, inbox growth) could alias any member.
  const FaultPlan& fault = cfg_.fault;
  const bool fault_enabled = fault_enabled_;
  const std::uint32_t round = round_;
  const std::uint32_t bandwidth_bits = bandwidth_bits_;
  std::uint8_t* const port_used = port_used_flat_.data();
  Message* const outbox = outbox_flat_.data();
  DeliveryObserver* const observer = cfg_.observer.get();
  // One predictable branch per delivery when nothing observes.
  const bool notify = sink != nullptr || observer != nullptr;
  std::int64_t consumed = 0;
  for (NodeId w = begin; w < end; ++w) {
    auto& ctx = contexts_[w];
    ctx.round_ = round;
    ctx.inbox_.clear();
    const bool w_crashed = fault_enabled && crash_index_.down(w);
    if (w_crashed) ++local.crashed_node_rounds;
    const std::uint32_t deg = ctx.degree();
    for (std::uint32_t p = 0; p < deg; ++p) {
      const std::uint32_t s = ctx.in_slot_[p];
      if (!port_used[s]) continue;
      port_used[s] = 0;
      ++consumed;
      const NodeId u = ctx.neighbors_[p];
      if (fault_enabled &&
          (w_crashed || crash_index_.down(u) || fault.drops(round, u, w))) {
        ++local.messages_dropped;
        continue;
      }
      Message& slot = outbox[s];
      const std::uint32_t sz = slot.size_bits();
      if (sz > bandwidth_bits) [[unlikely]] {
        if (cfg_.policy == BandwidthPolicy::kEnforce) {
          std::ostringstream os;
          os << "bandwidth violation: " << sz << " bits on edge " << u << "->"
             << w << " in round " << round_ << " (bw=" << bandwidth_bits_
             << ")";
          throw BandwidthViolationError(os.str());
        }
        ++local.violations;
        if (cfg_.policy == BandwidthPolicy::kTruncate) {
          ctx.inbox_.emplace_back(p, slot.truncated(bandwidth_bits_));
        } else {
          ctx.inbox_.emplace_back(p, std::move(slot));
        }
      } else {
        ctx.inbox_.emplace_back(p, std::move(slot));
      }
      Message& delivered = ctx.inbox_.back().msg;
      if (fault_enabled && fault.corrupts(round, u, w)) {
        fault.corrupt_in_place(delivered, round, u, w);
        ++local.messages_corrupted;
      }
      const std::uint32_t delivered_bits = delivered.size_bits();
      ++local.messages;
      local.bits += delivered_bits;
      local.max_edge_bits = std::max(local.max_edge_bits, delivered_bits);
      if (notify) {
        if (sink != nullptr) {
          sink->push_back(PendingDelivery{
              u, w, static_cast<std::uint32_t>(ctx.inbox_.size() - 1)});
        } else {
          observer->on_deliver(u, w, delivered, round);
        }
      }
      if (ctx.halted_) {  // a message re-activates a halted node
        ctx.halted_ = false;
        quiesce_->halted.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }
  if (consumed != 0) {
    quiesce_->inflight.fetch_sub(consumed, std::memory_order_relaxed);
  }
}

void Network::compute_range(std::uint32_t begin, std::uint32_t end) {
  // No flag-clearing pass: every queued slot was consumed (and its flag
  // cleared) by its receiver in this round's deliver phase — including a
  // crashed node's slots, whose messages were dropped with it. Programs
  // queue this round's sends into clean slots; their pending-send counts
  // drain into the quiescence counter in one batched atomic per slice.
  std::uint32_t sends = 0;
  for (NodeId v = begin; v < end; ++v) {
    auto& ctx = contexts_[v];
    if (fault_enabled_ && crash_index_.down(v)) continue;
    if (ctx.halted_ && ctx.inbox_.empty()) continue;
    programs_[v]->on_round(ctx);
    sends += ctx.pending_sends_;
    ctx.pending_sends_ = 0;
  }
  if (sends != 0) {
    quiesce_->inflight.fetch_add(sends, std::memory_order_relaxed);
  }
}

void Network::step_round(RunStats& phase) {
  ++round_;
  if (fault_enabled_) crash_index_.refresh(round_);
  RunStats local;
  deliver_range(0, n(), local, /*sink=*/nullptr);
  compute_range(0, n());
  if (memory_audit_) {
    for (NodeId v = 0; v < n(); ++v) {
      local.max_node_memory_bits =
          std::max(local.max_node_memory_bits, programs_[v]->memory_bits());
    }
    // Every program reported "not audited" in the first round: stop paying
    // the per-round virtual-call sweep (see NodeProgram::memory_bits).
    if (round_ == 1 && local.max_node_memory_bits == 0) memory_audit_ = false;
  }
  local.rounds = 1;
  phase += local;
}

void Network::shard_drop_observers() {
  metrics_observer_.reset();
  cfg_.observer = nullptr;
}

void Network::shard_start_range(std::uint32_t begin, std::uint32_t end) {
  std::uint32_t sends = 0;
  for (NodeId v = begin; v < end; ++v) {
    require(programs_[v] != nullptr,
            "Network::shard_start_range: init_programs was not called");
    programs_[v]->on_start(contexts_[v]);
    sends += contexts_[v].pending_sends_;
    contexts_[v].pending_sends_ = 0;
  }
  if (sends != 0) {
    quiesce_->inflight.fetch_add(sends, std::memory_order_relaxed);
  }
}

void Network::shard_begin_round() {
  ++round_;
  if (fault_enabled_) crash_index_.refresh(round_);
}

std::uint64_t Network::shard_memory_max_range(std::uint32_t begin,
                                              std::uint32_t end) const {
  std::uint64_t mx = 0;
  for (NodeId v = begin; v < end; ++v) {
    mx = std::max(mx, programs_[v]->memory_bits());
  }
  return mx;
}

Message Network::shard_extract_slot(std::uint32_t slot) {
  require(slot < outbox_flat_.size() && port_used_flat_[slot] != 0,
          "Network::shard_extract_slot: slot is not queued");
  port_used_flat_[slot] = 0;
  return std::move(outbox_flat_[slot]);  // move resets the slot to empty
}

void Network::shard_inject_slot(std::uint32_t slot, Message msg) {
  require(slot < outbox_flat_.size() && port_used_flat_[slot] == 0,
          "Network::shard_inject_slot: slot is already queued");
  outbox_flat_[slot] = std::move(msg);
  port_used_flat_[slot] = 1;
}

void Network::start_if_needed() {
  if (started_) return;
  std::uint32_t sends = 0;
  for (NodeId v = 0; v < n(); ++v) {
    require(programs_[v] != nullptr,
            "Network::run: init_programs was not called");
    programs_[v]->on_start(contexts_[v]);
    sends += contexts_[v].pending_sends_;
    contexts_[v].pending_sends_ = 0;
  }
  if (sends != 0) {
    quiesce_->inflight.fetch_add(sends, std::memory_order_relaxed);
  }
  started_ = true;
}

RunStats Network::run_phase(std::uint32_t max_rounds, bool until_quiet) {
  start_if_needed();
  RunStats phase;
  for (std::uint32_t executed = 0;
       executed < max_rounds && !(until_quiet && all_quiet()); ++executed) {
    step_round(phase);
  }
  // Per-phase truth, not lifetime state: quiesced reports whether the
  // network is quiescent *now*, at the end of this call.
  phase.quiesced = all_quiet();
  stats_ += phase;
  if (metrics_observer_ != nullptr) {
    metrics_observer_->flush();
    if (auto* m = metrics::global()) {
      m->add_counter("congest.phases");
      m->add_counter("congest.rounds", phase.rounds);
      m->add_counter("congest.messages", phase.messages);
      m->add_counter("congest.bits", phase.bits);
      m->add_counter("congest.messages_dropped", phase.messages_dropped);
      m->add_counter("congest.messages_corrupted", phase.messages_corrupted);
      m->add_counter("congest.bandwidth_violations", phase.violations);
      m->add_counter("congest.crashed_node_rounds", phase.crashed_node_rounds);
    }
  }
  return phase;
}

RunStats Network::run_rounds(std::uint32_t rounds) {
  return run_phase(rounds, /*until_quiet=*/false);
}

RunStats Network::run_until_quiescent(std::uint32_t max_rounds) {
  return run_phase(max_rounds, /*until_quiet=*/true);
}

}  // namespace qc::congest
