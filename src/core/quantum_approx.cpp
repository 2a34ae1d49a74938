#include "core/quantum_approx.hpp"

#include <algorithm>
#include <cmath>

#include "algos/bfs_tree.hpp"
#include "algos/hprw.hpp"
#include "algos/leader_election.hpp"
#include "core/detail.hpp"
#include "graph/algorithms.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace qc::core {

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
  algos::PreparationOutcome prep;
  // A fault plan that breaks the classical preliminaries is reported the
  // way a failing branch is, not thrown.
  try {
    // Choosing s needs an estimate of D; use d = ecc(leader) (within a
    // factor 2 of D), obtained with the standard O(D) preliminaries.
    const auto election = algos::elect_leader(g, cfg.net);
    prep_acc += election.stats;
    const auto lead_ecc =
        algos::compute_eccentricity(g, election.leader, cfg.net);
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

    // Figure 3 preparation = [HPRW14] Steps 1-3. It aggregates over the
    // leader and BFS tree above, so their rounds are charged once.
    prep = algos::hprw_preparation(g, s, election.leader, lead_ecc.tree,
                                   cfg.net);
    // A fault plan can make the distributed count of R disagree with the
    // mask the preparation built.
    if (!prep.aborted &&
        static_cast<std::uint32_t>(std::count(prep.r_mask.begin(),
                                              prep.r_mask.end(), true)) !=
            prep.r_size) {
      throw Error("quantum_diameter_approx: R size mismatch");
    }
  } catch (const qc::Error& e) {
    detail::mark_failed(e, rep);
    return rep;
  }
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
  const std::uint32_t d_sub =
      graph::induced_subtree(prep.tree_w.to_bfs_tree(), prep.r_mask)
          .height;  // depth of the R-ball

  std::uint32_t quantum_value = 0;
  if (prep.r_size == 1) {
    // R = {w}: its eccentricity is already known from BFS(w).
    quantum_value = prep.ecc_w;
  } else {
    const std::uint32_t branch_threads = detail::effective_branch_threads(cfg);
    detail::EngineSweep sweep(g, branch_threads);
    // Announce the window parameter (2d_sub) so nodes know the schedule.
    // Setup distributes u0 over BFS(w) with a broadcast of the same width
    // over the same tree, so this also measures its cost (Prop. 2).
    const std::uint32_t id_bits = qc::bit_width_for(g.n()) + 1;
    const auto announce =
        algos::broadcast_from_root(g, prep.tree_w, d_sub, id_bits, cfg.net)
            .stats;
    prep_acc += announce;
    rep.prep_rounds = prep_acc.rounds;

    // The same Figure 2 oracle as the exact algorithm, restricted to R via
    // the mask (windows walk the DFS numbering of BFS(w) induced on R). The
    // preparation is charged in prep_rounds, so the phase charges no
    // Initialization.
    const auto phase = detail::run_quantum_phase(
        g, cfg, branch_threads,
        {.algo = "quantum_diameter_approx",
         .tree = &prep.tree_w,
         .steps = 2 * std::max(1u, d_sub),
         .sweep = std::move(sweep),
         .mask = std::move(prep.r_mask),
         .t_setup = announce.rounds,
         .epsilon = std::min(1.0, static_cast<double>(std::max(1u, d_sub)) /
                                      (2.0 * static_cast<double>(prep.r_size))),
         .seed_mix = 0xa99ae5u},
        [](std::int64_t f) { return f; }, rep);
    quantum_value = phase.report.subroutine_failed
                        ? 0
                        : static_cast<std::uint32_t>(phase.report.value);
    rep.quantum_rounds = phase.report.total_rounds;
  }

  rep.estimate = std::max({prep.ecc_w, prep.max_ecc_sample, quantum_value});
  // The phase reported its own rounds as total_rounds; charge both phases.
  rep.total_rounds = rep.prep_rounds + rep.quantum_rounds;
  span.add(rep.total_rounds, 0, 0);
  return rep;
}

}  // namespace qc::core
