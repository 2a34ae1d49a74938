#include "core/quantum_decision.hpp"

#include <algorithm>
#include <memory>

#include "core/detail.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace qc::core {

DecisionReport quantum_diameter_decide(const graph::Graph& g,
                                       std::uint32_t threshold,
                                       const QuantumConfig& cfg) {
  metrics::ScopedTimer span("core.quantum_diameter_decide");
  DecisionReport rep;
  rep.threshold = threshold;
  if (g.n() <= 1) {
    rep.diameter_exceeds = false;
    return rep;
  }

  detail::InitPhase init = detail::run_initialization(g, cfg.net);
  rep.init_rounds = init.rounds;
  rep.t_setup = init.t_setup;

  // Cheap exits the classical preliminaries already settle: d <= D <= 2d.
  if (init.d > threshold) {
    rep.diameter_exceeds = true;
    rep.witness = init.leader;
    rep.total_rounds = init.rounds;
    return rep;
  }
  if (2 * init.d <= threshold) {
    rep.diameter_exceeds = false;
    rep.total_rounds = init.rounds;
    return rep;
  }

  const std::uint32_t steps = 2 * init.d;
  const std::uint32_t branch_threads = detail::effective_branch_threads(cfg);
  auto oracle = std::make_shared<detail::WindowOracle>(
      g, init.tree, steps, cfg.oracle, cfg.net,
      std::make_shared<const graph::EccEngine>(g, branch_threads));
  rep.t_eval_forward = oracle->t_eval_forward();

  SearchProblem prob;
  prob.domain_size = g.n();
  prob.marked = [oracle, threshold](std::size_t x) {
    return (*oracle)(x) > static_cast<std::int64_t>(threshold);
  };
  prob.t_init = init.rounds;
  prob.t_setup = init.t_setup;
  prob.t_eval_forward = oracle->t_eval_forward();
  // If D > threshold, Lemma 1 marks at least the windows covering a
  // peripheral vertex: P_M >= d/2n.
  prob.epsilon = std::min(
      1.0, static_cast<double>(init.d) / (2.0 * static_cast<double>(g.n())));
  prob.delta = cfg.delta;
  prob.num_threads = branch_threads;

  Rng rng(cfg.seed ^ 0xdec1deULL);
  metrics::PhaseTimer quantum_span(metrics::global(), "core.quantum_phase");
  auto s = detail::run_validated_phase(*oracle, branch_threads, [&] {
    return distributed_quantum_search(prob, rng);
  });
  quantum_span.add(s.total_rounds - init.rounds, 0, 0);
  quantum_span.finish();
  detail::record_quantum_costs("quantum_diameter_decide", s.costs,
                               s.distinct_evaluations,
                               oracle->reference_bfs_runs());

  rep.subroutine_failed = s.subroutine_failed;
  rep.failure_reason = s.failure_reason;
  rep.diameter_exceeds = s.found;
  rep.witness = s.found ? static_cast<graph::NodeId>(s.witness)
                        : graph::kInvalidNode;
  rep.total_rounds = s.total_rounds;
  rep.costs = s.costs;
  rep.distinct_branch_evaluations = s.distinct_evaluations;
  rep.reference_bfs_runs = oracle->reference_bfs_runs();
  rep.per_node_memory_qubits = s.per_node_memory_qubits;
  rep.leader_memory_qubits = s.leader_memory_qubits;
  span.add(rep.total_rounds, 0, 0);
  return rep;
}

}  // namespace qc::core
