#pragma once

#include <cstdint>
#include <vector>

#include "congest/message.hpp"
#include "graph/graph.hpp"

namespace qc::congest {

/// One node-crash interval of a FaultPlan: `node` is down for every round
/// r with crash_round <= r < recover_round (rounds are 1-based). A
/// recover_round of 0 means the node never comes back.
///
/// While down, a node neither sends nor receives nor computes: messages it
/// queued before the crash are lost, messages addressed to it are dropped,
/// and `on_round` is not invoked. A wake-up (NodeContext::wake_at) that
/// falls due meanwhile waits for the node's first round back up. Its
/// `vote_halt` state is frozen, so a permanently crashed node that had
/// not halted (or still has a wake-up pending) keeps
/// `run_until_quiescent` from reporting quiescence (the run times out —
/// the graceful-degradation layer in src/algos turns that into a
/// timed-out/degraded status instead of an abort).
struct CrashWindow {
  graph::NodeId node = 0;
  std::uint32_t crash_round = 1;
  std::uint32_t recover_round = 0;  ///< 0 = never recovers
};

/// Deterministic fault schedule applied by Network::deliver_range — a
/// model *extension* beyond the paper, whose CONGEST network is perfectly
/// reliable (see docs/model.md).
///
/// Every decision (drop this message? corrupt it? which bit?) is a pure
/// function of (seed, round, sender, receiver): no shared RNG stream is
/// consumed, so the decisions do not depend on delivery order or on which
/// process rolls them. For a fixed plan, in-process and sharded executions
/// are bit-identical — the same guarantee the observer layer gives for
/// fault-free runs.
struct FaultPlan {
  /// Per-delivery probability that a queued message vanishes in transit.
  double drop_probability = 0.0;
  /// Per-delivery probability that one bit of one field is flipped (the
  /// flipped bit stays inside the field's declared width, so a corrupted
  /// message is still well-formed and costs the same bandwidth).
  double corrupt_probability = 0.0;
  /// Seed of the stateless per-edge-per-round fault rolls.
  std::uint64_t seed = 1;
  /// Node crash/recover schedule; empty = no crashes.
  std::vector<CrashWindow> crashes;

  /// True if the plan can affect an execution at all. A disabled plan is
  /// never consulted, so default-constructed configs behave exactly as
  /// before the fault layer existed.
  bool enabled() const {
    return drop_probability > 0.0 || corrupt_probability > 0.0 ||
           !crashes.empty();
  }

  /// True iff `v` is down in round `round` under the crash schedule.
  bool crashed(graph::NodeId v, std::uint32_t round) const;

  /// True iff the message from->to of round `round` is dropped.
  bool drops(std::uint32_t round, graph::NodeId from, graph::NodeId to) const;

  /// True iff the message from->to of round `round` gets a bit flip.
  bool corrupts(std::uint32_t round, graph::NodeId from,
                graph::NodeId to) const;

  /// Flips one deterministically chosen bit of one field of `msg` (no-op
  /// for field-less messages). Call only when corrupts(...) returned true.
  void corrupt_in_place(Message& msg, std::uint32_t round, graph::NodeId from,
                        graph::NodeId to) const;

  /// The same plan with a seed decorrelated per retry attempt; attempt 0
  /// returns the plan unchanged, so a single attempt is bit-identical to
  /// calling the un-wrapped function. Used by the retry-with-extended-
  /// budget wrappers in src/algos.
  FaultPlan for_attempt(std::uint32_t attempt) const;
};

/// O(1)-per-check view of a FaultPlan's crash schedule.
///
/// FaultPlan::crashed linearly scans the crash list, which the delivery
/// hot loop would otherwise pay per (sender, receiver) edge per round. The
/// Network instead builds one CrashIndex at construction and refreshes it
/// once per round: refresh(r) recomputes the down-set in O(#crash windows)
/// (only nodes named by some window are ever touched), after which down(v)
/// is a flat array read.
///
/// Semantics are exactly FaultPlan::crashed — proven by a parity test over
/// every (node, round) pair (see tests/test_faults.cpp).
class CrashIndex {
 public:
  CrashIndex() = default;
  /// `n` = node count; windows naming nodes >= n are rejected upstream by
  /// the Network constructor.
  CrashIndex(const FaultPlan& plan, std::uint32_t n);

  /// Recomputes the down-set for `round`. Call once per round, before any
  /// down() query for that round.
  void refresh(std::uint32_t round);

  /// True iff `v` is down in the round last passed to refresh().
  bool down(graph::NodeId v) const {
    return !down_.empty() && down_[v] != 0;
  }

  /// Number of nodes in [begin, end) that are down in the round last
  /// passed to refresh(); O(#nodes named by a crash window).
  std::uint32_t down_in(graph::NodeId begin, graph::NodeId end) const;

 private:
  std::vector<CrashWindow> windows_;
  std::vector<graph::NodeId> touched_;  ///< distinct nodes with windows
  std::vector<std::uint8_t> down_;      ///< empty when no crash windows
};

}  // namespace qc::congest
