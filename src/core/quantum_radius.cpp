#include "core/quantum_radius.hpp"

#include <memory>

#include "core/detail.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace qc::core {

RadiusReport quantum_radius(const graph::Graph& g, const QuantumConfig& cfg) {
  metrics::ScopedTimer span("core.quantum_radius");
  RadiusReport rep;
  if (g.n() <= 1) {
    rep.radius = 0;
    rep.center = g.n() == 1 ? 0 : graph::kInvalidNode;
    return rep;
  }

  const std::uint32_t branch_threads = detail::effective_branch_threads(cfg);
  auto [init, engine] =
      detail::prepare_init_and_engine(g, cfg.net, branch_threads);
  rep.leader = init.leader;
  rep.init_rounds = init.rounds;
  rep.t_setup = init.t_setup;

  // steps = 0: the window is {u}, so the oracle returns ecc(u) exactly
  // (the Section 3.1 objective); we maximize its negation.
  auto oracle = std::make_shared<detail::WindowOracle>(
      g, init.tree, /*steps=*/0, cfg.oracle, cfg.net, std::move(engine));
  rep.t_eval_forward = oracle->t_eval_forward();

  OptimizationProblem prob;
  prob.domain_size = g.n();
  prob.evaluate = [oracle](std::size_t x) { return -(*oracle)(x); };
  prob.t_init = init.rounds;
  prob.t_setup = init.t_setup;
  prob.t_eval_forward = oracle->t_eval_forward();
  prob.epsilon = 1.0 / static_cast<double>(g.n());
  prob.delta = cfg.delta;
  prob.num_threads = branch_threads;

  Rng rng(cfg.seed ^ 0x5ad105ULL);
  metrics::PhaseTimer quantum_span(metrics::global(), "core.quantum_phase");
  auto opt = detail::run_validated_phase(*oracle, branch_threads, [&] {
    return distributed_quantum_optimize(prob, rng);
  });
  quantum_span.add(opt.total_rounds - init.rounds, 0, 0);
  quantum_span.finish();
  detail::record_quantum_costs("quantum_radius", opt.costs,
                               opt.distinct_evaluations,
                               oracle->reference_bfs_runs());

  rep.subroutine_failed = opt.subroutine_failed;
  rep.failure_reason = opt.failure_reason;
  rep.radius = opt.subroutine_failed
                   ? 0
                   : static_cast<std::uint32_t>(-opt.value);
  rep.center = static_cast<graph::NodeId>(opt.argmax);
  rep.total_rounds = opt.total_rounds;
  rep.costs = opt.costs;
  rep.distinct_branch_evaluations = opt.distinct_evaluations;
  rep.reference_bfs_runs = oracle->reference_bfs_runs();
  rep.budget_exhausted = opt.budget_exhausted;
  rep.per_node_memory_qubits = opt.per_node_memory_qubits;
  rep.leader_memory_qubits = opt.leader_memory_qubits;
  span.add(rep.total_rounds, 0, 0);
  return rep;
}

}  // namespace qc::core
