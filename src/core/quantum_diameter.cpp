#include "core/quantum_diameter.hpp"

#include <algorithm>

#include "core/detail.hpp"
#include "util/metrics.hpp"

namespace qc::core {

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
  detail::PreparedInit prep;
  try {
    prep = detail::prepare_init_and_engine(g, cfg.net, branch_threads);
  } catch (const qc::Error& e) {
    detail::mark_failed(e, rep);
    return rep;
  }
  auto& [init, sweep] = prep;
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

  const auto phase = detail::run_quantum_phase(
      g, cfg, branch_threads,
      {.algo = algo,
       .tree = &init.tree,
       .steps = steps,
       .sweep = std::move(sweep),
       .t_init = init.rounds,
       .t_setup = init.t_setup,
       .epsilon = epsilon},
      [](std::int64_t f) { return f; }, rep);
  rep.t_eval_forward = phase.t_eval_forward;
  rep.diameter = static_cast<std::uint32_t>(phase.report.value);
  rep.budget_exhausted = phase.report.budget_exhausted;
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
