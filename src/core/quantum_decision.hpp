#pragma once

#include <cstdint>

#include "core/quantum_diameter.hpp"
#include "graph/graph.hpp"

namespace qc::core {

/// Report of a diameter threshold decision.
struct DecisionReport : QuantumReport {
  bool diameter_exceeds = false;  ///< true iff diameter > threshold (whp)
  graph::NodeId witness = graph::kInvalidNode;  ///< a u with f(u) > threshold
  std::uint32_t threshold = 0;

  std::uint32_t init_rounds = 0;
  std::uint32_t t_setup = 0;
  std::uint32_t t_eval_forward = 0;
};

/// Decides "diameter > threshold?" — the decision form the paper's lower
/// bounds are stated against (e.g. Theorem 2's diameter-2-vs-3, Theorem 3's
/// (d+4)-vs-(d+5)).
///
/// One amplitude-amplification search (Theorem 6) over the Theorem 1
/// windows: u is marked iff max_{v in S(u)} ecc(v) > threshold. If the
/// diameter exceeds the threshold, every window containing a peripheral
/// vertex is marked, so P_M >= d/2n by Lemma 1; otherwise no window is
/// marked. O~(sqrt(nD)) rounds, like Theorem 1 but without the
/// maximization ladder (one log factor cheaper).
DecisionReport quantum_diameter_decide(const graph::Graph& g,
                                       std::uint32_t threshold,
                                       const QuantumConfig& cfg = {});

}  // namespace qc::core
