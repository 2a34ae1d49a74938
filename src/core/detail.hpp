#pragma once

// Internal building blocks shared by the quantum diameter/radius/decision
// front-ends: the classical initialization phase of Section 3 and the
// Figure 2 branch oracle. Not part of the public API surface.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "algos/evaluation.hpp"
#include "algos/tree_state.hpp"
#include "congest/network.hpp"
#include "core/quantum_diameter.hpp"
#include "graph/algorithms.hpp"
#include "graph/ecc_engine.hpp"
#include "graph/graph.hpp"

namespace qc::core::detail {

/// The classical preliminaries of Section 3: elect a leader, build
/// BFS(leader) with distances (Proposition 1), learn d = ecc(leader), and
/// broadcast d so every node can compute the Figure 2 schedule lengths.
/// Also measures the Proposition 2 Setup cost with one instrumentation
/// broadcast (not charged).
struct InitPhase {
  graph::NodeId leader = graph::kInvalidNode;
  std::uint32_t d = 0;
  algos::TreeState tree;
  std::uint32_t rounds = 0;
  std::uint32_t t_setup = 0;
};

InitPhase run_initialization(const graph::Graph& g,
                             const congest::NetworkConfig& net);

/// Branch-evaluation workers a front-end should actually use: the
/// configured branch_threads (0 = hardware concurrency), forced to 1 when
/// a delivery observer is armed — concurrent branch simulations would
/// interleave the observed event stream nondeterministically.
std::uint32_t effective_branch_threads(const QuantumConfig& cfg);

/// Tags a completed quantum phase in the global metrics registry (no-op
/// when metrics are disabled): Grover/Setup/check counters labeled with
/// the front-end name, plus the branch-evaluation and reference-BFS
/// totals. Shared by all four front-ends so the exported counter names
/// stay uniform.
void record_quantum_costs(const char* algo, const qsim::SearchCosts& costs,
                          std::uint64_t distinct_evaluations,
                          std::uint64_t reference_bfs_runs);

/// The branch oracle for f(u) = max_{v in segment window of u} ecc(v),
/// with the two evaluation modes of OracleMode. Cross-checks the
/// distributed Figure 2 execution against the centralized reference (on
/// every branch in kSimulate mode, once per oracle in kDirect mode).
///
/// The centralized reference is served by a shared graph::EccEngine — one
/// BFS per vertex for the whole oracle lifetime plus an O(1) sparse-table
/// segment query per branch — instead of the naive Theta(d) BFS per
/// branch. Only the reference path changed: the distributed Figure 2
/// simulation, its round accounting, and the kSimulate cross-check are
/// untouched and stay bit-identical.
///
/// operator() is safe to call from several threads at once (each branch
/// simulation builds its own Network over the shared read-only graph and
/// tree), so a core::BranchEvaluator can fan branches across workers.
class WindowOracle {
 public:
  /// `num_threads` fans the engine's one-time eccentricity sweep across
  /// that many workers (0 = hardware concurrency); results are identical
  /// at any value.
  WindowOracle(const graph::Graph& g, const algos::TreeState& tree,
               std::uint32_t steps, OracleMode mode,
               congest::NetworkConfig net, std::vector<bool> mask = {},
               std::uint32_t num_threads = 1);

  std::uint32_t t_eval_forward() const { return t_eval_forward_; }

  /// BFS runs of the centralized reference path (<= n by construction).
  std::uint64_t reference_bfs_runs() const { return engine_.bfs_runs(); }

  /// f(u0), per the configured mode.
  std::int64_t operator()(std::size_t u0);

 private:
  /// Runs Figure 2 for branch u0 and checks it against `reference`.
  void simulate_and_check(graph::NodeId u0, std::uint32_t reference);

  const graph::Graph* g_;
  const algos::TreeState* tree_;
  std::uint32_t steps_;
  OracleMode mode_;
  congest::NetworkConfig net_;
  std::vector<bool> mask_;
  graph::DfsNumbering num_;
  graph::EccEngine engine_;
  graph::EccEngine::SegmentMax seg_max_;
  std::uint32_t t_eval_forward_ = 0;
  std::mutex validate_mu_;  ///< held while the kDirect validation runs
  std::atomic<bool> validated_{false};
};

}  // namespace qc::core::detail
