#include "core/quantum_diameter.hpp"

#include <algorithm>
#include <memory>

#include "core/detail.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace qc::core {

using graph::NodeId;

namespace {

QuantumDiameterReport run_diameter_optimization(const graph::Graph& g,
                                                const QuantumConfig& cfg,
                                                bool windowed) {
  const char* algo =
      windowed ? "quantum_diameter_exact" : "quantum_diameter_simple";
  metrics::ScopedTimer span(windowed ? "core.quantum_diameter_exact"
                                     : "core.quantum_diameter_simple");
  QuantumDiameterReport rep;
  if (g.n() <= 1) {
    rep.diameter = 0;
    rep.leader = g.n() == 1 ? 0 : graph::kInvalidNode;
    return rep;
  }

  const std::uint32_t branch_threads = detail::effective_branch_threads(cfg);
  auto [init, engine] =
      detail::prepare_init_and_engine(g, cfg.net, branch_threads);
  rep.leader = init.leader;
  rep.ecc_leader = init.d;
  rep.init_rounds = init.rounds;
  rep.t_setup = init.t_setup;

  // Section 3.1 takes S(u) = {u} (f = ecc), Section 3.2 takes windows of
  // width 2d; Lemma 1 gives P_opt >= d/2n for the latter, the trivial
  // bound P_opt >= 1/n for the former.
  const std::uint32_t steps = windowed ? 2 * init.d : 0;
  const double n = static_cast<double>(g.n());
  const double epsilon =
      windowed ? std::min(1.0, static_cast<double>(init.d) / (2.0 * n))
               : 1.0 / n;

  auto oracle = std::make_shared<detail::WindowOracle>(
      g, init.tree, steps, cfg.oracle, cfg.net, std::move(engine));
  rep.t_eval_forward = oracle->t_eval_forward();

  OptimizationProblem prob;
  prob.domain_size = g.n();
  prob.evaluate = [oracle](std::size_t x) { return (*oracle)(x); };
  prob.t_init = init.rounds;
  prob.t_setup = init.t_setup;
  prob.t_eval_forward = oracle->t_eval_forward();
  prob.epsilon = epsilon;
  prob.delta = cfg.delta;
  prob.num_threads = branch_threads;

  Rng rng(cfg.seed);
  metrics::PhaseTimer quantum_span(metrics::global(), "core.quantum_phase");
  auto opt = detail::run_validated_phase(*oracle, branch_threads, [&] {
    return distributed_quantum_optimize(prob, rng);
  });
  quantum_span.add(opt.total_rounds - init.rounds, 0, 0);
  quantum_span.finish();
  detail::record_quantum_costs(algo, opt.costs, opt.distinct_evaluations,
                               oracle->reference_bfs_runs());

  rep.diameter = static_cast<std::uint32_t>(opt.value);
  rep.total_rounds = opt.total_rounds;
  rep.costs = opt.costs;
  rep.distinct_branch_evaluations = opt.distinct_evaluations;
  rep.reference_bfs_runs = oracle->reference_bfs_runs();
  rep.budget_exhausted = opt.budget_exhausted;
  rep.per_node_memory_qubits = opt.per_node_memory_qubits;
  rep.leader_memory_qubits = opt.leader_memory_qubits;
  rep.subroutine_failed = opt.subroutine_failed;
  rep.failure_reason = opt.failure_reason;
  span.add(rep.total_rounds, 0, 0);
  return rep;
}

}  // namespace

QuantumDiameterReport quantum_diameter_simple(const graph::Graph& g,
                                              const QuantumConfig& cfg) {
  return run_diameter_optimization(g, cfg, /*windowed=*/false);
}

QuantumDiameterReport quantum_diameter_exact(const graph::Graph& g,
                                             const QuantumConfig& cfg) {
  return run_diameter_optimization(g, cfg, /*windowed=*/true);
}

}  // namespace qc::core
