#include "core/quantum_radius.hpp"

#include "core/detail.hpp"
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
  detail::PreparedInit prep;
  try {
    prep = detail::prepare_init_and_engine(g, cfg.net, branch_threads);
  } catch (const qc::Error& e) {
    detail::mark_failed(e, rep);
    return rep;
  }
  auto& [init, sweep] = prep;
  rep.leader = init.leader;
  rep.init_rounds = init.rounds;
  rep.t_setup = init.t_setup;

  // steps = 0: the window is {u}, so the oracle returns ecc(u) exactly
  // (the Section 3.1 objective); we maximize its negation.
  const auto phase = detail::run_quantum_phase(
      g, cfg, branch_threads,
      {.algo = "quantum_radius",
       .tree = &init.tree,
       .steps = 0,
       .sweep = std::move(sweep),
       .t_init = init.rounds,
       .t_setup = init.t_setup,
       .epsilon = 1.0 / static_cast<double>(g.n()),
       .seed_mix = 0x5ad105ULL},
      [](std::int64_t f) { return -f; }, rep);
  const auto& opt = phase.report;
  rep.t_eval_forward = phase.t_eval_forward;
  rep.radius = opt.subroutine_failed
                   ? 0
                   : static_cast<std::uint32_t>(-opt.value);
  rep.center = static_cast<graph::NodeId>(opt.argmax);
  rep.budget_exhausted = opt.budget_exhausted;
  span.add(rep.total_rounds, 0, 0);
  return rep;
}

}  // namespace qc::core
