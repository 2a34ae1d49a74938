#pragma once

#include <cstdint>
#include <vector>

#include "algos/tree_state.hpp"
#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace qc::algos {

/// Output of the preparation part of Figure 3 (Steps 1-3 of Algorithm 1 in
/// [HPRW14]): runs in O~(n/s + D) rounds and polynomial classical memory.
struct PreparationOutcome {
  bool aborted = false;            ///< |S| exceeded its with-high-probability cap
  std::vector<graph::NodeId> sample;  ///< the random set S
  std::uint32_t max_ecc_sample = 0;   ///< max_{s in S} ecc(s)
  graph::NodeId w = graph::kInvalidNode;  ///< argmax_v d(v, p(v))
  std::uint32_t ecc_w = 0;
  TreeState tree_w;                ///< BFS(w)
  std::vector<bool> r_mask;        ///< R: the s closest nodes to w
  std::uint32_t r_size = 0;
  congest::RunStats stats;
};

/// Figure 3, preparation phase, with parameter s:
///   1. every vertex joins S independently with probability ln(n)/s
///      (abort if |S| > n ln(n)^2 / s);
///      the eccentricity of every member of S is computed via [LP13]
///      source detection + batched convergecast in O(|S| + D) rounds
///      (this is the n/s term);
///   2. every vertex v learns d(v, S); the network finds
///      w = argmax_v d(v, p(v)) by a convergecast;
///   3. BFS(w) is built and the s closest nodes to w join R.
///
/// Deviation from [HPRW14]: the R-membership cutoff (s-th smallest
/// (distance, id) from w) is located by binary search — O(log n) rounds of
/// broadcast-count probes, O(D log n) total — instead of their pipelined
/// selection; same O~ budget, simpler protocol. Ties broken by node id, so
/// R is unique and ancestor-closed in BFS(w) (what the DFS-token of the
/// quantum phase requires).
///
/// `leader` and `tree_l` = BFS(leader) are the standard O(D) preliminaries
/// (elect_leader + compute_eccentricity); the caller runs them, and
/// charges them once, since it also needs them to pick s. `tree_l` is the
/// aggregation tree of Steps 1-2. `stats` covers Steps 1-3 only.
PreparationOutcome hprw_preparation(const graph::Graph& g, std::uint32_t s,
                                    graph::NodeId leader,
                                    const TreeState& tree_l,
                                    congest::NetworkConfig cfg = {});

/// Full classical 3/2-approximation of the diameter (the [LP13, HPRW14]
/// row of Table 1): preparation plus a classical second phase that
/// computes max_{v in R} ecc(v) by source detection from R in O(s + D)
/// rounds. Returns estimate = max(ecc(w), max ecc over S, max ecc over R),
/// which satisfies floor(2D/3) <= estimate <= D.
///
/// s == 0 selects the classical optimum s = ceil(sqrt(n)), giving
/// O~(sqrt(n) + D) rounds total.
struct ApproxOutcome {
  std::uint32_t estimate = 0;
  bool aborted = false;
  std::uint32_t s_used = 0;
  congest::RunStats prep_stats;
  congest::RunStats phase2_stats;
  congest::RunStats stats;
};

ApproxOutcome classical_approx_diameter(const graph::Graph& g,
                                        std::uint32_t s = 0,
                                        congest::NetworkConfig cfg = {});

}  // namespace qc::algos
