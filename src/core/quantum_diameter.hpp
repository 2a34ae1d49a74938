#pragma once

#include <cstdint>

#include "congest/network.hpp"
#include "core/optimizer.hpp"
#include "graph/graph.hpp"

namespace qc::core {

/// How the branch oracle f(u0) is obtained.
enum class OracleMode {
  /// Every distinct branch runs the full Figure 2 procedure on the CONGEST
  /// simulator and is cross-checked against the centralized reference.
  /// This is the default and what the test suite exercises.
  kSimulate,
  /// Branches are evaluated with the centralized reference
  /// (graph::max_ecc_in_segment); one CONGEST execution still runs to
  /// measure the round costs and validate that branch. Bit-for-bit the
  /// same values as kSimulate (the procedures agree — tested), at a
  /// fraction of the wall-clock cost; intended for large benchmark sweeps.
  kDirect,
};

struct QuantumConfig {
  congest::NetworkConfig net;
  double delta = 0.01;       ///< failure probability target
  OracleMode oracle = OracleMode::kSimulate;
  std::uint64_t seed = 7;    ///< drives the quantum sampling

  /// Workers for the branch fan-out: each Grover branch is an independent
  /// deterministic CONGEST simulation, so the quantum front-ends evaluate
  /// the branch set through a core::BranchEvaluator on this many threads.
  /// 0 = one per hardware thread (default), 1 = serial (bit-for-bit the
  /// historical behavior; so is every other value — results and round
  /// counts do not depend on it). Forced to 1 when `net.observer` is
  /// armed, so observed event streams keep their deterministic order.
  std::uint32_t branch_threads = 0;
};

/// The costs every quantum front-end reports, filled from its Theorem 7
/// phase; "rounds" quantities are CONGEST rounds of the simulated
/// distributed execution, everything else is bookkeeping for the
/// benchmark harness.
struct QuantumReport {
  std::uint64_t total_rounds = 0;  ///< everything charged, phase included
  qsim::SearchCosts costs;
  std::uint64_t distinct_branch_evaluations = 0;

  /// BFS runs spent by the centralized reference path (the EccEngine
  /// behind the branch oracle): <= n, versus Theta(n*d) before the shared
  /// engine. Purely simulator bookkeeping — no CONGEST rounds involved.
  std::uint64_t reference_bfs_runs = 0;

  std::uint64_t per_node_memory_qubits = 0;
  std::uint64_t leader_memory_qubits = 0;

  /// Propagated from the phase's PhaseReport: the distributed Evaluation
  /// subroutine raised a qc::Error (e.g. under a fault plan) and the
  /// front-end's answer is meaningless.
  bool subroutine_failed = false;
  std::string failure_reason;
};

/// Full report of a quantum diameter computation.
struct QuantumDiameterReport : QuantumReport {
  std::uint32_t diameter = 0;      ///< the algorithm's output
  graph::NodeId leader = graph::kInvalidNode;
  std::uint32_t ecc_leader = 0;    ///< the d with d <= D <= 2d

  std::uint32_t init_rounds = 0;   ///< measured classical initialization
  std::uint32_t t_setup = 0;       ///< measured Setup cost (Prop. 2)
  std::uint32_t t_eval_forward = 0;///< measured Figure 2 Steps 1-4 cost
  bool budget_exhausted = false;
};

/// The simpler algorithm of Section 3.1: quantum maximization of
/// f(u) = ecc(u) with P_opt >= 1/n. O(sqrt(n) * D) rounds.
QuantumDiameterReport quantum_diameter_simple(const graph::Graph& g,
                                              const QuantumConfig& cfg = {});

/// Theorem 1 (Section 3.2): quantum maximization of
/// f(u) = max_{v in S(u)} ecc(v) over DFS windows of width 2d, with
/// P_opt >= d/2n by Lemma 1. O(sqrt(n * D)) rounds, O(log^2 n) qubits of
/// memory per node.
QuantumDiameterReport quantum_diameter_exact(const graph::Graph& g,
                                             const QuantumConfig& cfg = {});

}  // namespace qc::core
