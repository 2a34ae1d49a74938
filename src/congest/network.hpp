#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "congest/fault.hpp"
#include "congest/message.hpp"
#include "congest/observer.hpp"
#include "graph/graph.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qc::congest {

using graph::NodeId;

class Network;

/// A message delivered to a node, tagged with the port it arrived on.
///
/// Lifetime: an Incoming is a view. `msg` refers to engine-owned storage —
/// the payload the sender stored once in its round's send arena (shared by
/// every port of a broadcast), or a private per-arc copy when the delivery
/// was corrupted or truncated. The engine recycles that storage after the
/// round, so a view is valid only during the on_round call that reads it:
/// copy the Message (or the fields) you want to keep. Passing `in.msg` to
/// send/broadcast inside that on_round is fine; the send stores its own copy.
struct Incoming {
  std::uint32_t port;
  const Message& msg;
};

/// Sentinel arc reference: nothing is queued on the arc.
inline constexpr std::uint32_t kNoSend = ~std::uint32_t{0};

/// Sentinel port for NodeContext::broadcast: no port is left out.
inline constexpr std::uint32_t kNoPort = ~std::uint32_t{0};

/// One round's send storage, holding one stored payload per distinct
/// message: a send stores its payload once and the arcs it goes out on
/// hold the returned index, so a broadcast's ports all refer to one slot
/// and only a message that differs per port (a `send`) takes a slot of its
/// own. Elements are reused by assignment after recycle(), so a warmed
/// arena keeps its capacity and storing stays allocation-free.
class SendArena {
 public:
  template <typename M>
  std::uint32_t store(M&& msg) {
    if (used_ < slots_.size()) {
      slots_[used_] = std::forward<M>(msg);
    } else {
      slots_.push_back(std::forward<M>(msg));
    }
    return used_++;
  }
  const Message& operator[](std::uint32_t i) const { return slots_[i]; }
  void recycle() { used_ = 0; }

 private:
  std::vector<Message> slots_;
  std::uint32_t used_ = 0;
};

/// Incrementally maintained quiescence state: the exact quantities the old
/// O(n + Σdeg) all_quiet() scan recomputed per round, so the check is O(1).
/// vote_halt updates `halted` immediately; message counts, re-activations
/// and wake-up counts are batched (each compute/deliver slice flushes one
/// add/sub for its whole range, see NodeContext::pending_sends_), so the
/// hot loops pay no per-message atomic RMW. Updates are relaxed atomics;
/// the counters never influence message contents or delivery order, so
/// traces stay bit-identical whether one process runs every node or shard
/// workers each run a slice. Debug builds cross-check against the scan.
struct QuiesceCounters {
  std::atomic<std::int64_t> inflight{0};  ///< queued arcs not yet consumed
  std::atomic<std::int64_t> halted{0};    ///< nodes whose halted flag is set
  std::atomic<std::int64_t> wakes{0};     ///< nodes with a pending wake_at
};

/// Per-round view a NodeProgram gets of its node. This is the *entire*
/// interface a distributed algorithm may use: local identity, local ports,
/// the global value n (which the CONGEST model grants every node), the
/// current round number, this round's inbox, and send primitives.
class NodeContext {
 public:
  NodeId id() const { return id_; }

  /// Number of incident edges (= number of ports).
  std::uint32_t degree() const { return static_cast<std::uint32_t>(neighbors_.size()); }

  /// Identifier of the neighbor on `port` (nodes know their incident edges).
  NodeId neighbor(std::uint32_t port) const {
    require(port < degree(), "NodeContext::neighbor: port out of range");
    return neighbors_[port];
  }

  /// Port leading to neighbor `v`; throws if v is not adjacent.
  std::uint32_t port_to(NodeId v) const;

  /// Number of nodes in the network (known a priori in the model).
  std::uint32_t n() const { return n_; }

  /// Bit width of a node identifier (= ceil(log2 n)).
  std::uint32_t id_bits() const { return qc::bit_width_for(n_); }

  /// Current round, starting at 1 for the first round with deliveries.
  std::uint32_t round() const { return round_; }

  /// Messages delivered this round (sent by neighbors last round), in port
  /// order. The views are valid only during this on_round call (see
  /// Incoming): copy what you keep.
  std::span<const Incoming> inbox() const {
    return inbox_round_ == round_
               ? std::span<const Incoming>(views_->data() + inbox_first_,
                                           inbox_size_)
               : std::span<const Incoming>();
  }

  /// Queues a message on `port` for delivery next round. At most one
  /// message per port per round.
  void send(std::uint32_t port, Message msg);

  /// Queues a message to the neighbor with id `v`.
  void send_to(NodeId v, Message msg) { send(port_to(v), std::move(msg)); }

  /// Sends `msg` on every port except `except_port` (kNoPort: on every
  /// port). The payload is stored once and every port it goes out on
  /// refers to it — one stored payload per distinct message, so a program
  /// that sends the same message on all ports but one broadcasts it and
  /// `send`s the odd one out. Throws, without queueing anything, if a port
  /// it would send on already has a message this round; the excepted port
  /// is not checked and may be busy or be used by a later `send`.
  void broadcast(const Message& msg, std::uint32_t except_port = kNoPort);

  /// Signals that this node has no further work; the quiescence run mode
  /// stops when every node has halted, no message is in flight and no
  /// wake-up is pending. A halted node is re-activated automatically if a
  /// message arrives or its wake-up falls due. Halts are rare (at most one
  /// transition per node per round), so the counter update is immediate
  /// rather than batched like the message counts.
  void vote_halt() {
    if (halted_) return;
    halted_ = true;
    quiesce_->halted.fetch_add(1, std::memory_order_relaxed);
  }

  /// Asks the engine to run this node in round `r` even if no mail
  /// arrives — the wake-up an on-demand program (NodeProgram::on_demand)
  /// needs for every round in which it acts on its own. `r` must be later
  /// than round(); a node has one pending wake-up, and a later call
  /// replaces it. A wake-up that falls on a round in which the node is
  /// crashed fires in the node's first round back up.
  void wake_at(std::uint32_t r) {
    require(r > round_,
            "NodeContext::wake_at: the round must be in the future");
    wake_round_ = r;
  }

  /// Deterministic per-node randomness (seeded from the network seed and
  /// the node id).
  Rng& rng() { return rng_; }

 private:
  friend class Network;
  NodeId id_ = 0;
  std::uint32_t n_ = 0;
  std::uint32_t round_ = 0;
  /// This node's adjacency: a view into the Graph's CSR arrays (the
  /// Network already requires the graph to outlive it).
  std::span<const NodeId> neighbors_;
  /// This node's inbox: views_[inbox_first_, inbox_first_ + inbox_size_)
  /// of the round's view list (the Network's views_), valid while
  /// inbox_round_ is the current round. An older inbox is stale and reads
  /// as empty, so no pass clears the inboxes of nodes without mail.
  const std::vector<Incoming>* views_ = nullptr;
  std::uint32_t inbox_first_ = 0;
  std::uint32_t inbox_size_ = 0;
  std::uint32_t inbox_round_ = 0;
  /// This node's slice [0, degree) of the Network's arc references
  /// (sent_): entry p is the index, in the send arena of the round the
  /// message was sent, of the payload queued on port p, or kNoSend. One
  /// uint32_t per arc instead of a Message slot per arc: a broadcast
  /// stores its payload once and every port refers to it. Raw pointers
  /// stay valid across Network moves (vector and heap storage is stable);
  /// the array is sized once at construction.
  std::uint32_t* sent_ = nullptr;
  /// The Network's two send arenas; a send in round r stores into
  /// arenas_[r & 1].
  SendArena* arenas_ = nullptr;
  /// in_slot_[p] is the flat index of the arc on neighbors_[p] that
  /// targets this node (the reverse arc of port p); a slice of the
  /// Network's in_slot_ array, indexed like sent_. Lets delivery find the
  /// sender's arc reference in O(1) with a single indirection.
  const std::uint32_t* in_slot_ = nullptr;
  /// The Network's arc bitmap: send/broadcast on port p set bit
  /// in_slot_[p], the receiver-side arc the message arrives on, so
  /// delivery visits only arcs that carry mail.
  std::uint64_t* mail_ = nullptr;
  /// Messages queued by this node since the last counter flush. Owner-
  /// thread-only plain counter; compute_range drains it into
  /// QuiesceCounters::inflight in one batched atomic per slice.
  std::uint32_t pending_sends_ = 0;
  /// Round of the pending wake-up, 0 when none (see wake_at).
  std::uint32_t wake_round_ = 0;
  QuiesceCounters* quiesce_ = nullptr;  ///< owned by the Network
  bool halted_ = false;
  /// NodeProgram::on_demand of the installed program, read once.
  bool on_demand_ = false;
  Rng rng_{0};
};

/// A distributed algorithm, written once per node. Implementations hold the
/// node's local state as member data; the simulator guarantees they can
/// observe nothing beyond their NodeContext.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Called once before round 1; typical use: originators send the first
  /// messages (e.g. the BFS root of Figure 1 activating its neighbors).
  virtual void on_start(NodeContext& /*ctx*/) {}

  /// Called after delivery in every round in which the node runs; read
  /// ctx.inbox(), update state, send messages. A node runs in round r iff
  /// it is up and it has mail, or it is awake (not halted and not
  /// on-demand), or its wake-up (NodeContext::wake_at) is due.
  virtual void on_round(NodeContext& ctx) = 0;

  /// Opt-in to activity-proportional scheduling; read once per
  /// init_programs. An on-demand program is not run in rounds in which it
  /// has no mail and no due wake-up, even while it is not halted. The
  /// contract that makes this invisible: an on_round call with an empty
  /// inbox at a round the program did not ask for (via wake_at) must do
  /// nothing beyond re-arming its wake-up — no sends, no state change, no
  /// change in memory_bits(). A program that keeps this contract gives the
  /// same execution whether or not it declares itself on-demand.
  virtual bool on_demand() const { return false; }

  /// Number of bits of local working state the program currently holds;
  /// used to audit the paper's per-node memory claims (e.g. O(log n) for
  /// Figures 1-2). Zero means "not reported". If *every* program in a
  /// network reports 0 in the first executed round, the simulator stops
  /// polling this for the rest of the run (the per-round virtual-call sweep
  /// is pure overhead for non-reporting programs); a program that audits
  /// memory must therefore report a nonzero value from round 1 onward.
  /// The value may change only inside on_start/on_round: the audit polls
  /// every node in the first round of a phase and afterwards only the
  /// nodes that ran.
  virtual std::uint64_t memory_bits() const { return 0; }

  /// State transfer for the multi-process shard backend: append every bit
  /// of observable program state to `out` as explicit-width fields. After a
  /// sharded run the coordinator restores each worker-side program into a
  /// local replica via restore_state, so driver code that reads results
  /// through program_as works unchanged. The pair must round-trip exactly
  /// (restore(serialize(p)) == p in every observable respect); the defaults
  /// throw, so a program that was never taught to move its state fails
  /// loudly at harvest time instead of silently reporting initial state.
  virtual void serialize_state(Message& out) const;
  virtual void restore_state(const Message& in);
};

/// How the network reacts to a bandwidth violation.
enum class BandwidthPolicy {
  kEnforce,   ///< throw BandwidthViolationError immediately (default)
  kRecord,    ///< count violations in the stats but deliver anyway
  kTruncate,  ///< count the violation but deliver Message::truncated(bw):
              ///< leading fields that fit survive, the first overflowing
              ///< field is narrowed to the remaining bits, the rest is
              ///< cut. Stats count the clipped (delivered) bits.
};

/// True iff `neighbors` is strictly increasing — the port-order invariant
/// that NodeContext::port_to's binary search (and the deterministic inbox
/// assembly) relies on. The Network constructor validates every adjacency
/// list with this so an unsorted topology fails loudly at construction
/// instead of silently misrouting messages.
bool neighbors_strictly_sorted(std::span<const graph::NodeId> neighbors);

/// Precomputes, for every node w and port p with neighbor u = adjacency[w][p],
/// the reverse port q such that adjacency[u][q] == w. Throws
/// InvalidArgumentError if any list is not strictly sorted (the invariant
/// that makes port numbering well-defined), names a node outside
/// [0, adjacency.size()), or is not symmetric (w lists u but u does not
/// list w) — a corrupted adjacency must fail loudly instead of silently
/// misrouting messages. Nested-list form of build_reverse_arcs.
std::vector<std::vector<std::uint32_t>> build_reverse_ports(
    std::span<const std::vector<graph::NodeId>> adjacency);

/// CSR form used by the Network constructor: arc a = offsets[w] + p (node
/// w's port p, neighbor u = neighbors[a]) maps to the index of the reverse
/// arc offsets[u] + q with neighbors[offsets[u] + q] == w. Arc indices are
/// the Network's arc-reference slots, so the result is the slot a receiver
/// pulls from on each port. Same checks as build_reverse_ports.
std::vector<std::uint32_t> build_reverse_arcs(
    std::span<const std::uint32_t> offsets,
    std::span<const graph::NodeId> neighbors);

struct NetworkConfig {
  /// Per-edge per-direction per-round bandwidth in bits. Zero means "use
  /// the model default" congest_bandwidth_bits(n).
  std::uint32_t bandwidth_bits = 0;
  BandwidthPolicy policy = BandwidthPolicy::kEnforce;
  std::uint64_t seed = 1;

  /// Optional observer notified of every delivered message (sender,
  /// receiver, message, round), in (round, receiver, port) order. Used by
  /// the lower-bound harness to tally traffic crossing a vertex partition
  /// (Theorems 10/11) and by the trace/audit tooling. The shard backend
  /// replays its workers' events to this observer in the same order, so
  /// observed streams are bit-identical at every worker count. Compose
  /// several observers with MultiObserver.
  std::shared_ptr<DeliveryObserver> observer;

  /// Deterministic fault schedule (message drops, bit corruption, node
  /// crashes) applied during delivery. Disabled by default; a disabled
  /// plan leaves every execution bit-identical to the pre-fault-layer
  /// behavior. Decisions are stateless hashes of (fault seed, round,
  /// sender, receiver), so for a fixed plan sequential and sharded runs
  /// produce the same trace at every worker count. Observers never see
  /// dropped messages and see corrupted/truncated messages as delivered.
  FaultPlan fault;
};

/// Aggregate statistics of one execution phase. run_rounds and
/// run_until_quiescent return the stats of *that call only* — counters
/// count the phase's own traffic and the maxima are per-phase maxima, not
/// lifetime high-water marks; Network::stats() keeps the lifetime
/// aggregate.
struct RunStats {
  std::uint32_t rounds = 0;        ///< rounds actually executed
  std::uint64_t messages = 0;      ///< messages delivered
  std::uint64_t bits = 0;          ///< total bits delivered
  std::uint32_t max_edge_bits = 0; ///< max bits on one edge-direction in a round
  std::uint64_t violations = 0;    ///< bandwidth violations (kRecord/kTruncate)
  bool quiesced = false;           ///< network was quiescent when the phase ended
  std::uint64_t max_node_memory_bits = 0;  ///< high-water mark of memory_bits()
  std::uint64_t messages_dropped = 0;    ///< deliveries suppressed by the fault plan
  std::uint64_t messages_corrupted = 0;  ///< deliveries with a fault bit flip
  std::uint64_t crashed_node_rounds = 0; ///< (node, round) pairs spent crashed

  /// Merges stats of a later phase into this one (rounds add up, maxima
  /// combine by max, quiesced reflects the later phase).
  RunStats& operator+=(const RunStats& other);
};

/// A synchronous CONGEST network over a Graph topology.
///
/// Usage:
///   Network net(g, cfg);
///   net.init_programs([&](NodeId v) { return std::make_unique<MyProg>(...); });
///   RunStats st = net.run_rounds(T);            // time-driven
///   auto& out = net.program_as<MyProg>(v);      // read outputs
class Network {
 public:
  Network(const graph::Graph& g, NetworkConfig cfg = {});

  /// Instantiates one program per node. `make(v)` returns the program for
  /// node v. Clears any previous programs and resets round/state.
  void init_programs(
      const std::function<std::unique_ptr<NodeProgram>(NodeId)>& make);

  /// Runs exactly `rounds` rounds (time-driven procedures such as Figure 2,
  /// which executes for a fixed 6d-round budget, use this mode). Returns
  /// the stats of this call only (true per-phase deltas).
  RunStats run_rounds(std::uint32_t rounds);

  /// Runs until every node has halted and no message is in flight, or
  /// until `max_rounds` elapses. stats.quiesced tells which happened.
  /// Returns the stats of this call only (true per-phase deltas).
  RunStats run_until_quiescent(std::uint32_t max_rounds);

  const graph::Graph& topology() const { return *graph_; }
  std::uint32_t n() const { return graph_->n(); }
  std::uint32_t bandwidth_bits() const { return bandwidth_bits_; }

  NodeProgram& program(NodeId v) {
    require(v < n() && programs_[v] != nullptr, "Network::program: no program");
    return *programs_[v];
  }
  const NodeProgram& program(NodeId v) const {
    require(v < n() && programs_[v] != nullptr, "Network::program: no program");
    return *programs_[v];
  }

  /// Typed access to a node's program (the caller knows what it installed).
  template <typename T>
  T& program_as(NodeId v) {
    auto* p = dynamic_cast<T*>(&program(v));
    require(p != nullptr, "Network::program_as: wrong program type");
    return *p;
  }

  /// Stats accumulated since init_programs.
  const RunStats& stats() const { return stats_; }

  /// A delivery buffered for a deferred observer flush: shard workers
  /// collect these and ship the events to the coordinator, which replays
  /// them to the real observer. It names the delivery's entry in the
  /// round's view list rather than the sender's arc so the shipped event
  /// carries the message *as delivered* (after any fault corruption or
  /// bandwidth truncation); the views stay valid until the next round
  /// begins.
  struct PendingDelivery {
    NodeId from;
    NodeId to;
    std::uint32_t view_index;
  };

  // ---- Shard-backend hooks (src/congest/shard) ---------------------------
  // A worker process of the multi-process backend holds a full Network
  // replica and drives it through these entry points instead of run_rounds/
  // run_until_quiescent: the coordinator owns the round loop and the
  // quiescence / memory-audit decisions, and each worker executes only its
  // owned slice of every round. The hooks reuse the exact deliver_range /
  // compute_range / send-arena code paths of the in-process engine —
  // which is what makes sharded executions bit-identical by construction.
  // Boundary traffic moves by slot, the flat arc index (node u's port q is
  // slot offsets[u] + q): the sending worker copies a queued slot's
  // payload into its reply to the coordinator and clears the slot
  // (without touching the quiescence counter — the send was already
  // counted), the coordinator relays it to the receiver's shard, and the
  // owning worker injects it into the same slot of its replica, where the
  // normal delivery pass consumes it.

  /// Drops the user observer and the construction-time MetricsObserver:
  /// the real observer lives coordinator-side (a worker records events only
  /// into the sink it passes to shard_deliver_range), and a worker must not
  /// double-report into a metrics registry inherited across fork.
  void shard_drop_observers();

  /// on_start for nodes in [begin, end) — the worker's share of the
  /// one-time start phase; queued sends are counted locally.
  void shard_start_range(std::uint32_t begin, std::uint32_t end);

  /// Advances to the next round (round_+1), exactly as step_round's round
  /// prologue does: refreshes the crash index and marks the nodes whose
  /// wake-up falls due.
  void shard_begin_round() { begin_round(); }
  std::uint32_t shard_round() const { return round_; }

  void shard_deliver_range(std::uint32_t begin, std::uint32_t end,
                           RunStats& local,
                           std::vector<PendingDelivery>* sink) {
    deliver_range(begin, end, local, sink);
  }
  /// Runs the run set within [begin, end). While the memory audit is armed
  /// (shard_set_memory_audit) it folds memory_bits() into
  /// local.max_node_memory_bits: of every node in the range when
  /// `sweep_all` (the coordinator's first round of a phase), else of the
  /// nodes that ran.
  void shard_compute_range(std::uint32_t begin, std::uint32_t end,
                           RunStats& local, bool sweep_all) {
    compute_range(begin, end, local, sweep_all);
  }

  /// The coordinator owns the disarm-after-round-1 decision for the whole
  /// network; workers just follow it.
  void shard_set_memory_audit(bool on) { memory_audit_ = on; }

  std::uint32_t shard_slot_count() const {
    return static_cast<std::uint32_t>(sent_.size());
  }
  /// First slot of node v; v's port p queues into slot
  /// shard_out_base(v) + p.
  std::uint32_t shard_out_base(NodeId v) const { return offsets_[v]; }
  bool shard_slot_pending(std::uint32_t slot) const {
    return sent_[slot] != kNoSend;
  }
  /// Reads a queued slot's payload in place, in the current round's send
  /// arena (the payload may be a broadcast's, shared with other ports) —
  /// the shard worker copies it into its outbound boundary batch.
  const Message& shard_slot_message(std::uint32_t slot) const {
    return (*arenas_)[round_ & 1][sent_[slot]];
  }
  /// Clears a queued slot after its payload was serialized. Does NOT
  /// decrement the inflight counter: the message is still in flight (its
  /// receiving worker's delivery pass decrements on consume), so the
  /// per-worker counters sum to the single-process value.
  void shard_clear_slot(std::uint32_t slot) { sent_[slot] = kNoSend; }
  /// Stores a boundary message in the current round's send arena, points
  /// `slot` (which must be free) at it and marks its receiver-side arc as
  /// carrying mail. Does NOT increment inflight: the sender's worker already
  /// counted the send.
  void shard_inject_slot(std::uint32_t slot, Message msg);

  std::int64_t shard_inflight() const {
    return quiesce_->inflight.load(std::memory_order_relaxed);
  }
  std::int64_t shard_halted() const {
    return quiesce_->halted.load(std::memory_order_relaxed);
  }
  std::int64_t shard_wakes() const {
    return quiesce_->wakes.load(std::memory_order_relaxed);
  }

  /// The message a buffered PendingDelivery refers to, as delivered.
  const Message& shard_inbox_message(const PendingDelivery& d) const {
    return (*views_)[d.view_index].msg;
  }

 private:
  void start_if_needed();
  /// Shared body of run_rounds / run_until_quiescent: executes one phase,
  /// accumulates it into the lifetime stats_, and returns the phase stats.
  RunStats run_phase(std::uint32_t max_rounds, bool until_quiet);
  void step_round(RunStats& phase, bool first_of_phase);
  /// Round prologue shared by step_round and shard_begin_round.
  void begin_round();
  void compute_range(std::uint32_t begin, std::uint32_t end, RunStats& local,
                     bool sweep_all);
  /// Delivers the queued arcs into the receivers in [begin, end). Each
  /// delivery is recorded into `sink` when it is non-null, else reported to
  /// cfg_.observer if set.
  void deliver_range(std::uint32_t begin, std::uint32_t end,
                     RunStats& local_stats,
                     std::vector<PendingDelivery>* sink);
  /// Bookkeeping after on_start/on_round of node v: drains its send count
  /// into `sends`, updates its awake bit and registers a newly armed
  /// wake-up (`armed` = the wake round before the call).
  void after_run(NodeId v, std::uint32_t armed, std::int64_t& sends,
                 std::int64_t& wakes);
  /// O(1) quiescence check off the incrementally maintained QuiesceCounters;
  /// debug builds assert it against all_quiet_scan().
  bool all_quiet() const;
  /// The original O(n + Σdeg) rescan, kept as the debug-build ground truth
  /// for the counters.
  bool all_quiet_scan() const;

  const graph::Graph* graph_;
  NetworkConfig cfg_;
  /// Armed at construction when a global metrics registry is installed:
  /// a MetricsObserver composed into cfg_.observer streams per-round
  /// delivery histograms, and run_phase reports phase totals (incl. the
  /// drops/violations observers never see) as counters. Null when metrics
  /// are disabled — the hot path then only ever checks this pointer.
  std::shared_ptr<class MetricsObserver> metrics_observer_;
  std::uint32_t bandwidth_bits_ = 0;
  bool fault_enabled_ = false;
  /// O(1) per-check crash lookup, refreshed once per round (the hot
  /// delivery loop would otherwise scan the crash list per edge).
  CrashIndex crash_index_;
  std::uint32_t round_ = 0;
  std::vector<std::unique_ptr<NodeProgram>> programs_;
  std::vector<NodeContext> contexts_;
  /// The graph's CSR offsets: node u's ports are arcs offsets_[u] + q.
  const std::uint32_t* offsets_ = nullptr;
  /// Arc references: sent_[offsets_[u] + q] is the index of the payload
  /// node u queued on its port q in the send arena of the round it was
  /// sent, or kNoSend. Receivers consume arcs through in_slot_ and reset
  /// them as they do — every queued arc is examined by its unique receiver
  /// (delivered or dropped) in the next deliver pass, so the references
  /// are self-clearing and no per-round reset pass exists.
  std::vector<std::uint32_t> sent_;
  /// Send arenas by round parity: sends of round r (on_start is round 0)
  /// store their payload once in arena r & 1, and the deliver pass of
  /// round r + 1 hands out views into it. begin_round recycles the arena
  /// of the round before last — its views expired with that round.
  /// Heap-allocated so NodeContext's raw pointer stays valid if the
  /// Network object itself moves.
  std::unique_ptr<std::array<SendArena, 2>> arenas_ =
      std::make_unique<std::array<SendArena, 2>>();
  /// The round's deliveries as views, receiver by receiver in ascending
  /// order and ports in order within a receiver, so each inbox is one
  /// contiguous run. begin_round empties it (the views are trivially
  /// destructible, so that frees nothing). Heap-allocated for the same
  /// reason as arenas_.
  std::unique_ptr<std::vector<Incoming>> views_ =
      std::make_unique<std::vector<Incoming>>();
  /// Private per-arc copies for deliveries that differ from the shared
  /// payload (fault corruption, kTruncate), so a change never leaks to the
  /// other receivers of a broadcast. Sized only when the config can
  /// corrupt or truncate; a copy lives until its arc's next delivery,
  /// which outlasts the round its view is valid in.
  std::vector<Message> altered_;
  /// in_slot_[offsets_[w] + p]: the arc w pulls from on port p.
  std::vector<std::uint32_t> in_slot_;
  /// Activity bitmaps (bit i&63 of word i>>6):
  ///  * mail_arcs_  — one bit per receiver-side arc: bit offsets_[w] + q is
  ///    set while a message is queued for w's port q (a send on port p
  ///    sets bit in_slot_[p]; the reverse-arc table is its own inverse);
  ///  * run_bits_   — one bit per node: nodes that must run this round
  ///    beyond the awake ones: a non-empty inbox, or a due wake-up (kept
  ///    set while the node is crashed, which is the wake-up deferral);
  ///  * awake_bits_ — one bit per node: nodes neither halted nor on-demand.
  /// Delivery walks mail_arcs_ — receivers in ascending order, each inbox
  /// in port order — and compute walks run_bits_ | awake_bits_ in
  /// ascending node order, so a round costs O(m/32 + messages + nodes that
  /// run) word operations instead of O(n + m) scans, and a hub that hears
  /// from one neighbor pays for one arc, not for all its ports.
  std::vector<std::uint64_t> mail_arcs_;
  std::vector<std::uint64_t> run_bits_;
  std::vector<std::uint64_t> awake_bits_;
  /// Min-heap of armed wake-ups (round, node). Entries superseded by a
  /// later wake_at are skipped when they surface (lazy deletion).
  std::vector<std::pair<std::uint32_t, NodeId>> wake_heap_;
  /// Heap-allocated so NodeContext's raw pointer stays valid if the
  /// Network object itself moves.
  std::unique_ptr<QuiesceCounters> quiesce_ =
      std::make_unique<QuiesceCounters>();
  /// While true, step_round (and the shard coordinator, through
  /// shard_set_memory_audit) polls memory_bits(): every node in the first
  /// round of a phase, afterwards the nodes that ran (a value changes only
  /// when its program runs, so the phase maximum is the same as polling
  /// every node every round). Cleared permanently (until the next
  /// init_programs) once round 1 reports 0 everywhere — see
  /// NodeProgram::memory_bits.
  bool memory_audit_ = true;
  RunStats stats_;
  bool started_ = false;
};

}  // namespace qc::congest
