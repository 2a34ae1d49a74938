#include "core/quantum_approx.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "algos/bfs_tree.hpp"
#include "algos/hprw.hpp"
#include "algos/leader_election.hpp"
#include "core/detail.hpp"
#include "graph/algorithms.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace qc::core {

using graph::NodeId;

QuantumApproxReport quantum_diameter_approx(const graph::Graph& g,
                                            const QuantumConfig& cfg,
                                            std::uint32_t s_override) {
  metrics::ScopedTimer span("core.quantum_diameter_approx");
  QuantumApproxReport rep;
  if (g.n() <= 2) {
    rep.estimate = g.n() <= 1 ? 0 : 1;
    rep.s_used = 1;
    return rep;
  }

  congest::RunStats prep_acc;

  // Choosing s needs an estimate of D; use d = ecc(leader) (within a
  // factor 2 of D), obtained with the standard O(D) preliminaries.
  const auto election = algos::elect_leader(g, cfg.net);
  prep_acc += election.stats;
  auto lead_ecc = algos::compute_eccentricity(g, election.leader, cfg.net);
  prep_acc += lead_ecc.stats;
  const std::uint32_t d_leader = std::max(1u, lead_ecc.ecc);

  std::uint32_t s = s_override;
  if (s == 0) {
    const double n = static_cast<double>(g.n());
    s = static_cast<std::uint32_t>(std::ceil(
        std::pow(n, 2.0 / 3.0) / std::cbrt(static_cast<double>(d_leader))));
  }
  s = std::clamp<std::uint32_t>(s, 1, g.n());
  rep.s_used = s;

  // Figure 3 preparation = [HPRW14] Steps 1-3.
  auto prep = algos::hprw_preparation(g, s, cfg.net);
  prep_acc += prep.stats;
  rep.prep_rounds = prep_acc.rounds;
  rep.aborted = prep.aborted;
  if (prep.aborted) {
    rep.total_rounds = rep.prep_rounds;
    return rep;
  }
  rep.w = prep.w;

  // Quantum phase: maximize f over R with DFS windows on BFS(w) restricted
  // to R ("replacing leader by w and mod 2n by mod 2s", Section 4).
  auto subtree =
      graph::induced_subtree(prep.tree_w.to_bfs_tree(), prep.r_mask);
  const std::uint32_t d_sub = subtree.height;  // depth of the R-ball
  std::vector<std::size_t> support;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (prep.r_mask[v]) support.push_back(v);
  }
  check_internal(support.size() == prep.r_size,
                 "quantum_diameter_approx: R size mismatch");

  std::uint32_t quantum_value = 0;
  if (prep.r_size == 1) {
    // R = {w}: its eccentricity is already known from BFS(w).
    quantum_value = prep.ecc_w;
  } else {
    const std::uint32_t steps = 2 * std::max(1u, d_sub);
    const std::uint32_t id_bits = qc::bit_width_for(g.n()) + 1;
    // Setup distributes u0 over BFS(w); measure its cost (Prop. 2).
    const std::uint32_t t_setup =
        algos::broadcast_from_root(g, prep.tree_w, 0, id_bits, cfg.net)
            .stats.rounds;
    // Announce the window parameter (2d_sub) so nodes know the schedule.
    prep_acc += algos::broadcast_from_root(g, prep.tree_w, d_sub, id_bits,
                                           cfg.net)
                    .stats;
    rep.prep_rounds = prep_acc.rounds;

    // The same Figure 2 oracle as the exact algorithm, restricted to R via
    // the mask (windows walk the DFS numbering of BFS(w) induced on R).
    const std::uint32_t branch_threads = detail::effective_branch_threads(cfg);
    auto oracle = std::make_shared<detail::WindowOracle>(
        g, prep.tree_w, steps, cfg.oracle, cfg.net,
        std::make_shared<const graph::EccEngine>(g, branch_threads),
        prep.r_mask);
    const std::uint32_t t_eval_forward = oracle->t_eval_forward();

    OptimizationProblem prob;
    prob.domain_size = g.n();
    prob.support = support;
    prob.evaluate = [oracle](std::size_t x) { return (*oracle)(x); };
    prob.t_init = 0;  // preparation is charged separately in prep_rounds
    prob.t_setup = t_setup;
    prob.t_eval_forward = t_eval_forward;
    prob.epsilon = std::min(
        1.0, static_cast<double>(std::max(1u, d_sub)) /
                 (2.0 * static_cast<double>(prep.r_size)));
    prob.delta = cfg.delta;
    prob.num_threads = branch_threads;

    Rng rng(cfg.seed ^ 0xa99ae5u);
    metrics::PhaseTimer quantum_span(metrics::global(), "core.quantum_phase");
    auto opt = detail::run_validated_phase(*oracle, branch_threads, [&] {
      return distributed_quantum_optimize(prob, rng);
    });
    quantum_span.add(opt.total_rounds, 0, 0);
    quantum_span.finish();
    detail::record_quantum_costs("quantum_diameter_approx", opt.costs,
                                 opt.distinct_evaluations,
                                 oracle->reference_bfs_runs());
    rep.subroutine_failed = opt.subroutine_failed;
    rep.failure_reason = opt.failure_reason;
    quantum_value =
        opt.subroutine_failed ? 0 : static_cast<std::uint32_t>(opt.value);
    rep.quantum_rounds = opt.total_rounds;
    rep.costs = opt.costs;
    rep.distinct_branch_evaluations = opt.distinct_evaluations;
    rep.reference_bfs_runs = oracle->reference_bfs_runs();
    rep.per_node_memory_qubits = opt.per_node_memory_qubits;
    rep.leader_memory_qubits = opt.leader_memory_qubits;
  }

  rep.estimate = std::max({prep.ecc_w, prep.max_ecc_sample, quantum_value});
  rep.total_rounds = rep.prep_rounds + rep.quantum_rounds;
  span.add(rep.total_rounds, 0, 0);
  return rep;
}

}  // namespace qc::core
