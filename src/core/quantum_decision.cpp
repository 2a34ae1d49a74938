#include "core/quantum_decision.hpp"

#include <algorithm>

#include "core/detail.hpp"
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

  detail::InitPhase init;
  try {
    init = detail::run_initialization(g, cfg.net);
  } catch (const qc::Error& e) {
    detail::mark_failed(e, rep);
    return rep;
  }
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

  const std::uint32_t branch_threads = detail::effective_branch_threads(cfg);
  // The engine's sweep starts only past the cheap exits, beside the
  // validation. If D > threshold, Lemma 1 marks at least the windows
  // covering a peripheral vertex: P_M >= d/2n.
  const auto phase = detail::run_quantum_phase(
      g, cfg, branch_threads,
      {.algo = "quantum_diameter_decide",
       .tree = &init.tree,
       .steps = 2 * init.d,
       .sweep = detail::EngineSweep(g, branch_threads),
       .t_init = init.rounds,
       .t_setup = init.t_setup,
       .epsilon = std::min(1.0, static_cast<double>(init.d) /
                                    (2.0 * static_cast<double>(g.n()))),
       .seed_mix = 0xdec1deULL},
      [threshold](std::int64_t f) {
        return f > static_cast<std::int64_t>(threshold);
      },
      rep);
  const auto& s = phase.report;
  rep.t_eval_forward = phase.t_eval_forward;
  rep.diameter_exceeds = s.found;
  rep.witness = s.found ? static_cast<graph::NodeId>(s.witness)
                        : graph::kInvalidNode;
  span.add(rep.total_rounds, 0, 0);
  return rep;
}

}  // namespace qc::core
