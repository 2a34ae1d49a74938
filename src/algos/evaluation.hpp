#pragma once

#include <cstdint>
#include <vector>

#include "algos/tree_state.hpp"
#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace qc::algos {

/// The Evaluation procedure of Figure 2 (Proposition 4), run as one
/// time-driven CONGEST execution with three internally scheduled phases:
///
///  * Step 1  (rounds 1 .. 3*steps): a DFS token walks `steps` edges of
///    the BFS tree starting at u0, continuing the Euler tour from u0's
///    position and wrapping at the root. Nodes hold only their parent
///    pointer (O(log n) bits), so the token discovers "next child after c"
///    with a probe/reply cycle: the holder broadcasts PROBE(threshold),
///    every (mask-eligible) child answers with whether its id exceeds the
///    threshold, and the holder forwards the token to the smallest
///    qualifying child — or up to its parent, or (at the root) wraps to
///    its smallest child. Three rounds per walk step. Every node first
///    reached at walk position t records tau'(v) = t and joins S;
///    tau'(u0) = 0.
///  * Step 2  (the next pipeline_len rounds): every v in S broadcasts its
///    start message (tau'(v), 0) at local round 2*tau'(v) + 1; all nodes
///    run the filter/keep/extend rule of Figure 2 Step 2(3). The schedule
///    guarantees congestion-freeness (Lemmas 2-4); the implementation
///    *asserts* the Lemma 4 invariant instead of trusting it.
///  * Steps 3-4 (the final height+1 rounds): a max convergecast of the dv
///    values up the BFS tree (each node only needs its parent and depth)
///    delivers max_{v in S} ecc(v) to the root.
///
/// Step 5 of Figure 2 (reverting steps 3 to 1 to clean all registers,
/// which makes the procedure a unitary usable inside amplitude
/// amplification) is charged by the caller as a second pass of the same
/// length; see core::PhaseReport::total_rounds (core/optimizer.hpp).
///
/// One off-by-one deviation from the paper's text: Figure 2 has nodes keep
/// dv = max(dv, delta) while rebroadcasting (tau', delta+1), which would
/// make a node at distance k from the source keep k-1. We keep
/// dv = max(dv, delta+1) so dv is exactly max_{u in S processed} d(u, v),
/// which is what the correctness argument (and "delta = d(u,v)") intends.
class EvaluationProgram : public congest::NodeProgram {
 public:
  struct Params {
    graph::NodeId u0 = 0;             ///< start of the DFS segment
    std::uint32_t steps = 0;          ///< token moves (2d in the paper)
    std::uint32_t pipeline_len = 0;   ///< length of the Step 2 window
    std::uint32_t tree_height = 0;    ///< height of the BFS tree
    std::uint32_t n = 0;              ///< network size (message widths)
  };

  /// `tree_parent`/`depth`: this node's slice of the BFS tree;
  /// `in_mask`: whether this node participates in the token walk (true
  /// for the Theorem 1 evaluation; membership in R for the Figure 3
  /// variant — a locally known bit).
  EvaluationProgram(Params params, graph::NodeId tree_parent,
                    std::uint32_t depth, bool in_mask);

  void on_start(congest::NodeContext& ctx) override;
  void on_round(congest::NodeContext& ctx) override;
  std::uint64_t memory_bits() const override;
  /// Figure 2 is a time-driven schedule in which a node acts on its own in
  /// only a few rounds; every other round without mail is a no-op. The
  /// program arms a wake-up for its next such round (see arm_wake) and
  /// the engine skips the rest.
  bool on_demand() const override { return true; }

  bool in_window() const { return tau_prime_ >= 0; }
  std::int64_t tau_prime() const { return tau_prime_; }
  std::uint32_t dv() const { return dv_; }
  bool has_result() const { return has_result_; }
  std::uint32_t result() const { return result_; }

  /// Total Step 1 duration in rounds (3 per walk step).
  static std::uint32_t token_phase_rounds(std::uint32_t steps) {
    return 3 * steps;
  }

 private:
  // Message kinds of the Step 1 sub-protocol.
  enum Kind : std::uint64_t { kToken = 0, kProbe = 1, kReply = 2 };

  void token_round(congest::NodeContext& ctx);
  void pipeline_round(congest::NodeContext& ctx, std::uint32_t local_round);
  void convergecast_round(congest::NodeContext& ctx,
                          std::uint32_t local_round);
  void receive_token(congest::NodeContext& ctx, std::uint32_t position,
                     bool from_parent, graph::NodeId came_from);
  /// Arms the earliest round after ctx.round() in which this node acts
  /// without mail: the reply round of a pending probe, its own Step 2 wave
  /// start, or its Steps 3-4 report round.
  void arm_wake(congest::NodeContext& ctx) const;

  Params p_;
  graph::NodeId tree_parent_;
  std::uint32_t depth_;
  bool in_mask_;

  std::uint32_t kind_bits_, tau_bits_, delta_bits_, dist_bits_, id_bits_;

  // Step 1 state: O(log n) — the current probe context while holding the
  // token, plus tau'.
  std::int64_t tau_prime_ = -1;
  bool awaiting_replies_ = false;
  std::uint32_t token_position_ = 0;
  std::int64_t probe_threshold_ = -1;  // -1 = "any child"

  // Step 2 state (exactly the tv/dv of Figure 2).
  std::int64_t tv_ = -1;
  std::uint32_t dv_ = 0;

  // Steps 3-4 state.
  std::uint32_t conv_max_ = 0;
  bool has_result_ = false;
  std::uint32_t result_ = 0;
};

struct EvaluationOutcome {
  std::uint32_t max_ecc = 0;            ///< f(u0) = max_{v in S(u0)} ecc(v)
  std::vector<graph::NodeId> window;    ///< the set S, sorted by id
  std::vector<std::int64_t> tau_prime;  ///< per node, -1 if not in S
  congest::RunStats stats;              ///< forward execution (Steps 1-4)
};

/// Runs the Evaluation procedure on `g`.
///
/// `tree` is the full BFS tree (of the leader, or of w for the Figure 3
/// variant). `mask`, if non-null, restricts the token walk to the
/// ancestor-closed subtree it selects (the set R); u0 must be in it.
/// `steps` is the walk length (2d in the paper; anything >= the full
/// Euler tour makes S the whole (sub)tree, which is how the O(n)-round
/// classical exact algorithm reuses this machinery).
EvaluationOutcome evaluate_window_ecc(const graph::Graph& g,
                                      const TreeState& tree, graph::NodeId u0,
                                      std::uint32_t steps,
                                      congest::NetworkConfig cfg = {},
                                      const std::vector<bool>* mask = nullptr);

/// Executable Step 5 of Figure 2: runs the Evaluation forward while
/// recording its trace, then *replays the exact message schedule in
/// reverse* through the network (message at forward round t is re-sent,
/// reversed, at round T-t+1). Reversing a feasible synchronous schedule
/// is itself feasible — every edge carries in reverse exactly what it
/// carried forward — which is the operational content of "revert steps 3
/// to 1 in order to clean all registers": the uncomputation pass costs
/// exactly the forward budget and respects the same bandwidth.
///
/// Returns the forward outcome plus the measured revert statistics; the
/// unitary Evaluation cost charged by the optimizer (2 * T_eval_forward)
/// equals forward.rounds + revert.rounds by construction (asserted).
struct UnitaryEvaluationOutcome {
  EvaluationOutcome forward;
  congest::RunStats revert_stats;
  std::uint64_t total_rounds = 0;  ///< forward + revert
};

UnitaryEvaluationOutcome evaluate_window_ecc_unitary(
    const graph::Graph& g, const TreeState& tree, graph::NodeId u0,
    std::uint32_t steps, congest::NetworkConfig cfg = {},
    const std::vector<bool>* mask = nullptr);

}  // namespace qc::algos
