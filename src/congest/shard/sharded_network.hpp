#pragma once

// Multi-process CONGEST execution: the coordinator side.
//
// ShardedNetwork mirrors congest::Network's driver-facing API
// (init_programs / run_rounds / run_until_quiescent / stats / program_as)
// but executes rounds across W worker processes. At init_programs the
// coordinator forks W workers, each connected by one socketpair that
// carries every frame; fork inherits the graph and the program factory, so
// every worker builds a bit-identical Network replica and owns one
// contiguous id range of its nodes (partition.hpp). Each round the
// coordinator writes every worker a round-begin frame, workers run the
// unchanged deliver/compute hot path over their owned range, then reply
// with a round-end frame: stats delta, quiescence counters, delivery
// events (only with an observer) and outbound boundary messages grouped
// by receiving shard. The coordinator checks only the group headers and
// relays the groups' bytes, unread, in the next round's round-begin
// frames. The round barrier, a poll() over the sockets, is the only
// synchronization point. A warmed round allocates nothing on either side:
// every frame buffer is reserved at spawn to the CONGEST bound of one
// message per arc per round (bench_shard --check pins this).
//
// Determinism contract (tests/test_differential.cpp, tests/test_shard.cpp):
// RunStats, fault-injection outcomes, report fields and the observer event
// stream are bit-identical to the single-process engine for every worker
// count. Stats merge by sum/max, fault decisions and per-node RNGs are
// stateless functions of the seed and ids, and the coordinator replays
// worker event batches in shard order, which is the canonical (round,
// receiver, port) order because the ranges ascend with the shard id; see
// docs/distributed.md. Sharding exists to show that those results do not
// depend on process layout; it is slower than the in-process engine
// (docs/performance.md), so it carries no performance-only machinery.
//
// Program results flow back through NodeProgram::serialize_state /
// restore_state: on first access to program(v) after a run the coordinator
// harvests every worker's owned program states and restores them into
// local replicas built by the same factory, so existing driver code reads
// outcomes exactly as it does from an in-process Network.

#include <poll.h>
#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "congest/network.hpp"
#include "congest/shard/codec.hpp"
#include "congest/shard/partition.hpp"

namespace qc::congest::shard {

struct ShardConfig {
  /// Worker process count W; must satisfy 1 <= W <= n. W=1 still runs the
  /// full fork/protocol path (useful as the parity baseline that exercises
  /// identical machinery).
  std::uint32_t shards = 2;
  /// The network configuration every worker replica is built with. The
  /// observer (if any) is invoked coordinator-side only, in canonical
  /// order; bandwidth/fault/seed semantics are identical to Network's.
  NetworkConfig net;
  /// Optional cooperative stop: checked between rounds (e.g. from a
  /// SIGTERM handler); when it reads true the phase ends early and
  /// interrupted() reports it. The workers still shut down cleanly.
  std::atomic<bool>* stop = nullptr;
  /// When nonzero, every worker arms its allocation probe after this round
  /// and fails the run if a later round heap-allocates. Effective only in binaries that install the probe
  /// (QC_INSTALL_ALLOC_PROBE); see bench_shard --check.
  std::uint32_t verify_zero_alloc_from_round = 0;
};

/// Transport-level counters accumulated since init_programs, for
/// bench_shard and the shard.* metrics (docs/observability.md).
struct ShardPerfCounters {
  std::uint64_t rounds = 0;
  /// Wall time the coordinator spent inside the round barrier waiting for
  /// round-end publications.
  std::uint64_t barrier_wait_us = 0;
  /// Encoded boundary entries the coordinator relayed to their receiving
  /// workers (slot + message, codec.hpp grammar).
  std::uint64_t boundary_bytes = 0;
  std::uint64_t boundary_messages = 0;
  /// Delivery events that were never built or shipped because no observer
  /// is installed (one per delivered message in observer-less runs).
  std::uint64_t events_elided = 0;
};

class ShardedNetwork {
 public:
  using ProgramFactory = std::function<std::unique_ptr<NodeProgram>(NodeId)>;

  ShardedNetwork(const graph::Graph& g, ShardConfig cfg = {});
  ~ShardedNetwork();

  ShardedNetwork(const ShardedNetwork&) = delete;
  ShardedNetwork& operator=(const ShardedNetwork&) = delete;

  /// Builds coordinator-side program replicas and (re)spawns the W worker
  /// processes, each constructing its own replica network. Clears any
  /// previous run's state, exactly like Network::init_programs.
  void init_programs(const ProgramFactory& make);

  /// Runs exactly `rounds` rounds across the workers; returns this call's
  /// stats only (the same per-phase semantics as Network::run_rounds).
  RunStats run_rounds(std::uint32_t rounds);

  /// Runs until global quiescence (every node halted, no message in
  /// flight anywhere, no wake-up pending) or `max_rounds`;
  /// stats.quiesced tells which.
  RunStats run_until_quiescent(std::uint32_t max_rounds);

  const graph::Graph& topology() const { return *graph_; }
  std::uint32_t n() const { return graph_->n(); }
  std::uint32_t bandwidth_bits() const { return bandwidth_bits_; }
  const ShardAssignment& assignment() const { return asn_; }

  /// Coordinator-side replica of node v's program, lazily synchronized
  /// from the workers (one harvest round-trip per run phase, on first
  /// access). Requires the workers to be alive — read results before
  /// shutdown().
  NodeProgram& program(NodeId v);

  template <typename T>
  T& program_as(NodeId v) {
    auto* p = dynamic_cast<T*>(&program(v));
    require(p != nullptr, "ShardedNetwork::program_as: wrong program type");
    return *p;
  }

  /// Stats accumulated since init_programs.
  const RunStats& stats() const { return stats_; }

  /// Transport counters accumulated since init_programs.
  const ShardPerfCounters& perf() const { return perf_; }

  /// True when the last phase ended because cfg.stop read true.
  bool interrupted() const { return interrupted_; }

  /// Worker pids, for process-hygiene checks in tests and tooling.
  std::vector<pid_t> worker_pids() const;

  /// Graceful teardown: sends every worker a shutdown frame, closes the
  /// sockets and reaps the processes. Throws qc::Error if any worker did
  /// not exit cleanly with status 0. Idempotent; the destructor performs
  /// the same teardown without throwing.
  void shutdown();

 private:
  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    /// Latest reported quiescence counters; their sums over workers equal
    /// the single-process counters (see the shard hooks in network.hpp).
    std::int64_t inflight = 0;
    std::int64_t halted = 0;
    std::int64_t wakes = 0;
  };

  /// What a barrier collection expects from every worker; selects the
  /// decode applied by dispatch().
  enum class Collect { kStartDone, kRoundEnd, kHarvestDone };

  void spawn_workers();
  /// Closes sockets and reaps every worker. `graceful` sends shutdown
  /// frames first and expects exit 0; non-graceful SIGKILLs. Returns a
  /// description of anything abnormal ("" when clean). Never throws.
  std::string teardown(bool graceful);
  /// Force-tears down the session and throws qc::Error naming worker w.
  [[noreturn]] void fail(std::size_t w, const std::string& what);
  RunStats run_phase(std::uint32_t max_rounds, bool until_quiet);
  void start_if_needed();
  bool all_quiet() const;
  /// Writes one frame, the concatenation of `parts`, to worker w; an
  /// unreachable worker fails the run.
  void send_frame(std::size_t w,
                  std::span<const std::span<const std::uint8_t>> parts);
  /// Writes every worker the body-free frame `op`.
  void send_all(ShardOp op);
  /// The barrier: poll()s every worker's socket until each has sent one
  /// frame, then dispatch()es the frames in shard order. A dead worker, a
  /// malformed frame or an error frame becomes a thrown qc::Error after
  /// force-tearing down the remaining workers — a crashed worker is a
  /// clean failure, not a hang.
  void collect_all(Collect what);
  void dispatch(std::size_t w, Collect what);
  void sync_programs();

  const graph::Graph* graph_;
  ShardConfig cfg_;
  ShardAssignment asn_;
  std::uint32_t bandwidth_bits_ = 0;
  ProgramFactory factory_;
  std::vector<std::unique_ptr<NodeProgram>> replicas_;
  std::vector<Worker> workers_;
  RunStats stats_;
  ShardPerfCounters perf_;
  std::uint32_t round_ = 0;
  bool spawned_ = false;
  bool started_ = false;
  bool broken_ = false;
  bool needs_harvest_ = false;
  bool memory_audit_ = true;
  bool interrupted_ = false;

  // -- reused per-round state (the allocation-free barrier) -----------------
  RoundBeginFrame rb_;                        ///< encode source
  RoundEndFrame re_;                          ///< decode target
  RunStats round_stats_;                      ///< this round's merged deltas
  std::uint64_t events_merged_ = 0;           ///< this phase's events
  std::vector<std::vector<std::uint8_t>> rx_;  ///< one reply per worker
  /// W x W: groups_[s * W + t] is the group worker s last sent shard t,
  /// entry bytes inside rx_[s]; shard t's next round_begin relays it.
  std::vector<BoundaryGroup> groups_;
  std::vector<std::span<const std::uint8_t>> parts_;  ///< round_begin gather
  std::vector<std::vector<std::uint8_t>> harvest_rx_;  ///< harvest replies
  std::vector<pollfd> polls_;                 ///< barrier poll set
};

}  // namespace qc::congest::shard
