#include "congest/network.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
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

std::vector<std::uint32_t> build_reverse_arcs(
    std::span<const std::uint32_t> offsets,
    std::span<const graph::NodeId> neighbors) {
  const std::size_t n = offsets.size() <= 1 ? 0 : offsets.size() - 1;
  std::vector<std::uint32_t> reverse(n == 0 ? 0 : offsets[n]);
  require(reverse.size() <= neighbors.size(),
          "build_reverse_arcs: offsets overrun the neighbor array");
  for (std::size_t w = 0; w < n; ++w) {
    require(offsets[w] <= offsets[w + 1] && offsets[w + 1] <= offsets[n],
            "build_reverse_arcs: offsets must be monotone");
  }
  for (std::size_t w = 0; w < n; ++w) {
    require(neighbors_strictly_sorted(
                neighbors.subspan(offsets[w], offsets[w + 1] - offsets[w])),
            "build_reverse_arcs: adjacency lists must be strictly sorted "
            "(port numbering and the reverse-port table both rely on it; an "
            "unsorted list would silently misroute messages)");
  }
  // Visiting tails w in ascending order delivers the arcs into u in the
  // order of u's sorted list, so one cursor per node finds every reverse
  // arc: O(m) in total instead of a binary search per arc. If w lists u
  // but u omits w, the arc w -> u finds a different entry (or none) at
  // u's cursor, so every asymmetric pair fails here.
  const auto heads = offsets.first(n);
  std::vector<std::uint32_t> cursor(heads.begin(), heads.end());
  for (std::size_t w = 0; w < n; ++w) {
    for (std::uint32_t a = offsets[w]; a < offsets[w + 1]; ++a) {
      const graph::NodeId u = neighbors[a];
      require(u < n, "build_reverse_arcs: adjacency names an unknown node");
      std::uint32_t& q = cursor[u];
      require(q < offsets[u + 1] && neighbors[q] == w,
              "build_reverse_arcs: adjacency is not symmetric (a node "
              "lists a neighbor whose list omits the reverse edge)");
      reverse[a] = q++;
    }
  }
  return reverse;
}

std::vector<std::vector<std::uint32_t>> build_reverse_ports(
    std::span<const std::vector<graph::NodeId>> adjacency) {
  const std::size_t n = adjacency.size();
  std::vector<std::uint32_t> offsets(n + 1, 0);
  std::vector<graph::NodeId> flat;
  for (std::size_t w = 0; w < n; ++w) {
    offsets[w + 1] =
        offsets[w] + static_cast<std::uint32_t>(adjacency[w].size());
    flat.insert(flat.end(), adjacency[w].begin(), adjacency[w].end());
  }
  const auto arcs = build_reverse_arcs(offsets, flat);
  std::vector<std::vector<std::uint32_t>> reverse(n);
  for (std::size_t w = 0; w < n; ++w) {
    reverse[w].resize(adjacency[w].size());
    for (std::size_t p = 0; p < adjacency[w].size(); ++p) {
      reverse[w][p] = arcs[offsets[w] + p] - offsets[adjacency[w][p]];
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
  require(sent_[port] == kNoSend,
          "NodeContext::send: at most one message per port per round");
  sent_[port] = arenas_[round_ & 1].store(std::move(msg));
  const std::uint32_t arc = in_slot_[port];  // the receiver's side
  mail_[arc >> 6] |= std::uint64_t{1} << (arc & 63);
  ++pending_sends_;  // drained into the quiescence counter per slice
}

void NodeContext::broadcast(const Message& msg, std::uint32_t except_port) {
  // One payload for every port but except_port. The ports are the two runs
  // [0, cut) and (cut, deg); with kNoPort the second run is empty. Every
  // port is checked before anything is queued (kNoSend is all ones, so the
  // AND of free references is kNoSend), which keeps a throwing broadcast
  // free of side effects.
  const std::uint32_t deg = degree();
  require(except_port < deg || except_port == kNoPort,
          "NodeContext::broadcast: excepted port out of range");
  const std::uint32_t cut = std::min(except_port, deg);
  std::uint32_t all_refs = kNoSend;
  for (std::uint32_t p = 0; p < cut; ++p) all_refs &= sent_[p];
  for (std::uint32_t p = cut + 1; p < deg; ++p) all_refs &= sent_[p];
  require(all_refs == kNoSend,
          "NodeContext::send: at most one message per port per round");
  const std::uint32_t count = deg - (cut < deg ? 1 : 0);
  if (count == 0) return;
  const std::uint32_t ref = arenas_[round_ & 1].store(msg);
  const auto queue = [&](std::uint32_t p) {
    sent_[p] = ref;
    const std::uint32_t arc = in_slot_[p];
    mail_[arc >> 6] |= std::uint64_t{1} << (arc & 63);
  };
  for (std::uint32_t p = 0; p < cut; ++p) queue(p);
  for (std::uint32_t p = cut + 1; p < deg; ++p) queue(p);
  pending_sends_ += count;
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

namespace {

constexpr std::uint64_t bit_of(NodeId v) {
  return std::uint64_t{1} << (v & 63);
}

/// The bits of bitmap word `i` that fall inside [begin, end).
std::uint64_t range_mask(std::size_t i, std::uint32_t begin,
                         std::uint32_t end) {
  const std::uint64_t lo = static_cast<std::uint64_t>(i) * 64;
  std::uint64_t mask = ~std::uint64_t{0};
  if (begin > lo) mask &= ~std::uint64_t{0} << (begin - lo);
  if (end < lo + 64) mask &= (std::uint64_t{1} << (end - lo)) - 1;
  return mask;
}

}  // namespace

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
  if (g.n() != 0) {
    // Validates sortedness and symmetry of every adjacency list, then gives
    // delivery O(1) access to the sender's arc reference for each edge.
    // sent_ is laid out like the CSR arcs, so the reverse arc of a
    // receiver's port is exactly the slot it pulls from.
    in_slot_ = build_reverse_arcs(g.csr_offsets(), g.csr_neighbors());
    offsets_ = g.csr_offsets().data();
  }
  sent_.assign(in_slot_.size(), kNoSend);
  if (cfg_.fault.corrupt_probability > 0.0 ||
      cfg_.policy == BandwidthPolicy::kTruncate) {
    altered_.resize(in_slot_.size());
  }
  const std::size_t words = (static_cast<std::size_t>(g.n()) + 63) / 64;
  mail_arcs_.assign((in_slot_.size() + 63) / 64, 0);
  run_bits_.assign(words, 0);
  awake_bits_.assign(words, 0);
  contexts_.resize(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    auto& ctx = contexts_[v];
    ctx.id_ = v;
    ctx.n_ = g.n();
    ctx.neighbors_ = g.neighbors(v);
    ctx.sent_ = sent_.data() + offsets_[v];
    ctx.arenas_ = arenas_->data();
    ctx.views_ = views_.get();
    ctx.in_slot_ = in_slot_.data() + offsets_[v];
    ctx.mail_ = mail_arcs_.data();
    ctx.quiesce_ = quiesce_.get();
  }
  programs_.resize(g.n());
}

void Network::init_programs(
    const std::function<std::unique_ptr<NodeProgram>(NodeId)>& make) {
  std::fill(awake_bits_.begin(), awake_bits_.end(), std::uint64_t{0});
  // The per-node RNG streams start from the master seed on every init, so
  // a rerun of a randomized program on the same Network reproduces the
  // first run bit-for-bit.
  const Rng master(cfg_.seed);
  for (NodeId v = 0; v < n(); ++v) {
    programs_[v] = make(v);
    require(programs_[v] != nullptr,
            "Network::init_programs: factory returned null");
    auto& ctx = contexts_[v];
    ctx.round_ = 0;
    ctx.inbox_size_ = 0;
    ctx.inbox_round_ = 0;
    ctx.pending_sends_ = 0;
    ctx.wake_round_ = 0;
    ctx.halted_ = false;
    ctx.rng_ = master.child(v);
    ctx.on_demand_ = programs_[v]->on_demand();
    if (!ctx.on_demand_) awake_bits_[v >> 6] |= bit_of(v);
  }
  // A mid-run re-init may leave queued-but-undelivered arcs, mail and
  // wake-ups behind; wipe them so every invariant restarts from empty.
  std::fill(sent_.begin(), sent_.end(), kNoSend);
  for (auto& arena : *arenas_) arena.recycle();
  views_->clear();
  std::fill(mail_arcs_.begin(), mail_arcs_.end(), std::uint64_t{0});
  std::fill(run_bits_.begin(), run_bits_.end(), std::uint64_t{0});
  wake_heap_.clear();
  quiesce_->inflight.store(0, std::memory_order_relaxed);
  quiesce_->halted.store(0, std::memory_order_relaxed);
  quiesce_->wakes.store(0, std::memory_order_relaxed);
  memory_audit_ = true;
  round_ = 0;
  stats_ = RunStats{};
  started_ = false;
}

bool Network::all_quiet_scan() const {
  for (NodeId v = 0; v < n(); ++v) {
    if (!contexts_[v].halted_ || contexts_[v].wake_round_ != 0) return false;
  }
  for (const std::uint32_t ref : sent_) {
    if (ref != kNoSend) return false;
  }
  return true;
}

bool Network::all_quiet() const {
  const bool quiet =
      quiesce_->halted.load(std::memory_order_relaxed) ==
          static_cast<std::int64_t>(n()) &&
      quiesce_->inflight.load(std::memory_order_relaxed) == 0 &&
      quiesce_->wakes.load(std::memory_order_relaxed) == 0;
  // The counters are the old scan incrementally maintained; keep the scan
  // as the debug-build ground truth. (inflight counts un-consumed arcs,
  // but at every all_quiet call site delivery has consumed all arcs of
  // the previous round and only fresh sends remain, so the two
  // formulations agree exactly.)
  assert(quiet == all_quiet_scan());
  return quiet;
}

void Network::begin_round() {
  ++round_;
  // This round's sends reuse the arena of the round before last, whose
  // views expired when that round's on_round calls returned.
  (*arenas_)[round_ & 1].recycle();
  views_->clear();
  if (fault_enabled_) crash_index_.refresh(round_);
  // Surface the wake-ups due this round; an entry whose node re-armed
  // since is stale and skipped.
  while (!wake_heap_.empty() && wake_heap_.front().first <= round_) {
    const auto [r, v] = wake_heap_.front();
    std::pop_heap(wake_heap_.begin(), wake_heap_.end(), std::greater<>());
    wake_heap_.pop_back();
    if (contexts_[v].wake_round_ == r) run_bits_[v >> 6] |= bit_of(v);
  }
}

void Network::deliver_range(std::uint32_t begin, std::uint32_t end,
                            RunStats& local,
                            std::vector<PendingDelivery>* sink) {
  // Receiver-driven delivery over the arcs that carry mail: node w pulls,
  // in port order, the messages its neighbors queued for it last round.
  // The mail bitmap has one bit per receiver-side arc (w's port q is arc
  // offsets_[w] + q), so walking its set bits in [offsets_[begin],
  // offsets_[end]) visits receivers in ascending id order and each inbox
  // in port order: the inbox — and the (round, receiver, port) event order
  // — is the same as a sweep over every port of every node and does not
  // depend on how receivers are split into ranges, while a hub with one
  // message costs one arc instead of a scan of all its ports. Observer
  // events either fire inline (sink == nullptr) or are recorded into the
  // sink — a shard worker ships them to the coordinator, which replays
  // them in receiver order. Fault decisions are stateless hashes of (seed,
  // round, from, to), so they do not depend on the range split either.
  // Crash checks go through the per-round CrashIndex (refreshed at round
  // start) instead of scanning the crash list per edge.
  //
  // The common path is allocation-free and O(1) per message: the sender's
  // arc reference is one flat array index away (in_slot_, the reverse arc)
  // and names the payload in last round's send arena; the receiver's inbox
  // is a run of views of such payloads in views_, so no message is copied
  // or moved. Each directed edge has exactly one receiver, so an arc is
  // consumed exactly once per round; the receiver resets the reference as
  // it consumes it, and the sender only writes it again in the compute
  // phase that follows. A delivery that differs from the payload
  // (bandwidth truncation, fault corruption) goes to the arc's private
  // copy in altered_ instead — a broadcast payload is shared by all its
  // receivers and is never modified. Consumed arcs are counted locally and
  // drained into the quiescence counter once per call, not once per
  // message.
  // Loop-invariant members and the tallies are held in locals: the
  // compiler cannot keep them in registers itself because the opaque calls
  // in the loop body (observer virtual call, view-list growth) could alias
  // any member.
  if (begin >= end) return;
  const FaultPlan& fault = cfg_.fault;
  const bool fault_enabled = fault_enabled_;
  const std::uint32_t round = round_;
  const std::uint32_t bandwidth_bits = bandwidth_bits_;
  std::uint32_t* const sent = sent_.data();
  const std::uint32_t* const in_slot = in_slot_.data();
  const NodeId* const heads = graph_->csr_neighbors().data();
  const SendArena& payloads = (*arenas_)[(round - 1) & 1];
  std::vector<Incoming>& views = *views_;
  DeliveryObserver* const observer = cfg_.observer.get();
  // One predictable branch per delivery when nothing observes.
  const bool notify = sink != nullptr || observer != nullptr;
  if (fault_enabled) {
    local.crashed_node_rounds += crash_index_.down_in(begin, end);
  }
  std::int64_t consumed = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint32_t max_edge_bits = local.max_edge_bits;
  // The receiver whose inbox is being assembled: its first arc, the arc
  // past its last port, and where its views start. Before the first
  // receiver the view list has not grown, so closing is a no-op.
  NodeId w = 0;
  std::uint32_t w_base = 0;
  std::uint32_t w_end = 0;
  auto first = static_cast<std::uint32_t>(views.size());
  bool w_crashed = false;
  const auto close_inbox = [&] {
    if (views.size() == first) return;
    auto& ctx = contexts_[w];
    ctx.inbox_first_ = first;
    ctx.inbox_size_ = static_cast<std::uint32_t>(views.size()) - first;
    ctx.inbox_round_ = round;
    run_bits_[w >> 6] |= bit_of(w);
  };
  const std::uint32_t arc_begin = offsets_[begin];
  const std::uint32_t arc_end = offsets_[end];
  const std::size_t words_end = (static_cast<std::size_t>(arc_end) + 63) >> 6;
  for (std::size_t i = arc_begin >> 6; i < words_end; ++i) {
    std::uint64_t arcs = mail_arcs_[i] & range_mask(i, arc_begin, arc_end);
    mail_arcs_[i] &= ~arcs;
    for (; arcs != 0; arcs &= arcs - 1) {
      const auto r =
          static_cast<std::uint32_t>(i * 64 + std::countr_zero(arcs));
      const std::uint32_t s = in_slot[r];
      if (r >= w_end) {
        // First mail of the next receiver: the head of the sender's arc.
        close_inbox();
        w = heads[s];
        w_base = offsets_[w];
        w_end = offsets_[w + 1];
        first = static_cast<std::uint32_t>(views.size());
        w_crashed = fault_enabled && crash_index_.down(w);
      }
      const std::uint32_t ref = sent[s];
      assert(ref != kNoSend);
      sent[s] = kNoSend;
      ++consumed;
      const NodeId u = heads[r];
      if (fault_enabled &&
          (w_crashed || crash_index_.down(u) || fault.drops(round, u, w))) {
        ++local.messages_dropped;
        continue;
      }
      const Message& payload = payloads[ref];
      const std::uint32_t sz = payload.size_bits();
      bool altered = false;
      if (sz > bandwidth_bits) [[unlikely]] {
        if (cfg_.policy == BandwidthPolicy::kEnforce) {
          std::ostringstream os;
          os << "bandwidth violation: " << sz << " bits on edge " << u
             << "->" << w << " in round " << round_
             << " (bw=" << bandwidth_bits_ << ")";
          throw BandwidthViolationError(os.str());
        }
        ++local.violations;
        if (cfg_.policy == BandwidthPolicy::kTruncate) {
          altered_[s] = payload.truncated(bandwidth_bits_);
          altered = true;
        }
      }
      if (fault_enabled && fault.corrupts(round, u, w)) {
        if (!altered) altered_[s] = payload;
        fault.corrupt_in_place(altered_[s], round, u, w);
        altered = true;
        ++local.messages_corrupted;
      }
      const Message& delivered = altered ? altered_[s] : payload;
      views.emplace_back(r - w_base, delivered);
      const std::uint32_t delivered_bits = delivered.size_bits();
      ++messages;
      bits += delivered_bits;
      max_edge_bits = std::max(max_edge_bits, delivered_bits);
      if (notify) {
        if (sink != nullptr) {
          sink->push_back(PendingDelivery{
              u, w, static_cast<std::uint32_t>(views.size() - 1)});
        } else {
          observer->on_deliver(u, w, delivered, round);
        }
      }
    }
  }
  close_inbox();
  local.messages += messages;
  local.bits += bits;
  local.max_edge_bits = max_edge_bits;
#ifndef NDEBUG
  // The invariant a sweep over every arc used to guarantee: each queued
  // arc addressed to this range was consumed (delivered or dropped), and
  // no mail bit of the range survives its delivery pass.
  for (NodeId v = begin; v < end; ++v) {
    for (std::uint32_t p = 0; p < contexts_[v].degree(); ++p) {
      assert(sent[contexts_[v].in_slot_[p]] == kNoSend);
    }
  }
  for (std::size_t i = arc_begin >> 6; i < words_end; ++i) {
    assert((mail_arcs_[i] & range_mask(i, arc_begin, arc_end)) == 0);
  }
#endif
  if (consumed != 0) {
    quiesce_->inflight.fetch_sub(consumed, std::memory_order_relaxed);
  }
}

void Network::after_run(NodeId v, std::uint32_t armed, std::int64_t& sends,
                        std::int64_t& wakes) {
  auto& ctx = contexts_[v];
  sends += ctx.pending_sends_;
  ctx.pending_sends_ = 0;
  std::uint64_t& awake = awake_bits_[v >> 6];
  if (((awake & bit_of(v)) != 0) == (ctx.halted_ || ctx.on_demand_)) {
    awake ^= bit_of(v);
  }
  if (ctx.wake_round_ != armed) {
    wake_heap_.emplace_back(ctx.wake_round_, v);
    std::push_heap(wake_heap_.begin(), wake_heap_.end(), std::greater<>());
    if (armed == 0) ++wakes;
  }
}

void Network::compute_range(std::uint32_t begin, std::uint32_t end,
                            RunStats& local, bool sweep_all) {
  // Runs the run set — nodes with mail, awake nodes and nodes whose
  // wake-up is due — in ascending id order. A crashed node is skipped and
  // keeps its run bit, so a wake-up that lands while it is down fires in
  // its first round back up. Running re-activates a halted node (mail or a
  // due wake-up is what got it here). No flag-clearing pass: every queued
  // slot was consumed (and its flag cleared) by its receiver in this
  // round's deliver phase. Counter changes drain into the quiescence
  // counters in one batched atomic per slice.
  const std::uint32_t round = round_;
  const bool audit_ran = memory_audit_ && !sweep_all;
  std::uint64_t mem = 0;
  std::int64_t sends = 0;
  std::int64_t wakes = 0;
  std::int64_t woken = 0;
  for (std::size_t i = begin >> 6; begin < end && i <= (end - 1) >> 6; ++i) {
    const std::uint64_t mask = range_mask(i, begin, end);
    std::uint64_t down = 0;
    for (std::uint64_t bits = (run_bits_[i] | awake_bits_[i]) & mask;
         bits != 0; bits &= bits - 1) {
      const auto v = static_cast<NodeId>(i * 64 + std::countr_zero(bits));
      if (fault_enabled_ && crash_index_.down(v)) {
        down |= bit_of(v);
        continue;
      }
      auto& ctx = contexts_[v];
      if (ctx.wake_round_ - 1 < round) {  // due; 0 (none) wraps around
        ctx.wake_round_ = 0;  // the wake-up fires now
        --wakes;
      }
      if (ctx.halted_) {
        ctx.halted_ = false;
        ++woken;
      }
      const std::uint32_t armed = ctx.wake_round_;
      ctx.round_ = round;
      programs_[v]->on_round(ctx);
      after_run(v, armed, sends, wakes);
      if (audit_ran) mem = std::max(mem, programs_[v]->memory_bits());
    }
    run_bits_[i] &= ~mask | down;
  }
  if (memory_audit_ && sweep_all) {
    for (NodeId v = begin; v < end; ++v) {
      mem = std::max(mem, programs_[v]->memory_bits());
    }
  }
  local.max_node_memory_bits = std::max(local.max_node_memory_bits, mem);
  if (sends != 0) {
    quiesce_->inflight.fetch_add(sends, std::memory_order_relaxed);
  }
  if (wakes != 0) quiesce_->wakes.fetch_add(wakes, std::memory_order_relaxed);
  if (woken != 0) quiesce_->halted.fetch_sub(woken, std::memory_order_relaxed);
}

void Network::step_round(RunStats& phase, bool first_of_phase) {
  begin_round();
  RunStats local;
  deliver_range(0, n(), local, /*sink=*/nullptr);
  compute_range(0, n(), local, /*sweep_all=*/first_of_phase);
  // Every program reported "not audited" in the first round: stop polling
  // memory_bits() (see NodeProgram::memory_bits).
  if (memory_audit_ && round_ == 1 && local.max_node_memory_bits == 0) {
    memory_audit_ = false;
  }
  local.rounds = 1;
  phase += local;
}

void Network::shard_drop_observers() {
  metrics_observer_.reset();
  cfg_.observer = nullptr;
}

void Network::shard_start_range(std::uint32_t begin, std::uint32_t end) {
  std::int64_t sends = 0;
  std::int64_t wakes = 0;
  for (NodeId v = begin; v < end; ++v) {
    require(programs_[v] != nullptr,
            "Network::run: init_programs was not called");
    programs_[v]->on_start(contexts_[v]);
    after_run(v, /*armed=*/0, sends, wakes);
  }
  if (sends != 0) {
    quiesce_->inflight.fetch_add(sends, std::memory_order_relaxed);
  }
  if (wakes != 0) quiesce_->wakes.fetch_add(wakes, std::memory_order_relaxed);
}

void Network::shard_inject_slot(std::uint32_t slot, Message msg) {
  require(slot < sent_.size() && sent_[slot] == kNoSend,
          "Network::shard_inject_slot: slot is already queued");
  // Injected before the round that delivers it begins, i.e. into the
  // arena of the round it was sent in, next to the replica's own sends.
  sent_[slot] = (*arenas_)[round_ & 1].store(std::move(msg));
  // The reverse-arc table is its own inverse: the slot's reverse arc is the
  // receiver's port on which it arrives.
  const std::uint32_t arc = in_slot_[slot];
  mail_arcs_[arc >> 6] |= bit_of(arc);
}

void Network::start_if_needed() {
  if (started_) return;
  shard_start_range(0, n());
  started_ = true;
}

RunStats Network::run_phase(std::uint32_t max_rounds, bool until_quiet) {
  start_if_needed();
  RunStats phase;
  for (std::uint32_t executed = 0;
       executed < max_rounds && !(until_quiet && all_quiet()); ++executed) {
    step_round(phase, /*first_of_phase=*/executed == 0);
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
