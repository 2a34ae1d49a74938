#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "qsim/search.hpp"
#include "util/rng.hpp"

namespace qc::core {

/// The part of a Section 2.4 (Theorem 7) problem that does not depend on
/// its shape: a leader coordinates quantum amplification over a domain X
/// whose evaluation runs as a distributed subroutine.
///
/// The round costs of the three black boxes are *measured* from CONGEST
/// executions by the caller and passed in:
///  - t_init: rounds of Initialization (run once),
///  - t_setup: rounds of one Setup application (Proposition 2's CNOT-copy
///    broadcast; its inverse costs the same),
///  - t_eval_forward: rounds of Steps 1-4 of the Evaluation procedure
///    (Figure 2). The Evaluation *unitary* costs 2*t_eval_forward (Step 5
///    reverts Steps 1-4 to clean all registers).
struct PhaseProblem {
  std::size_t domain_size = 0;        ///< |X|
  /// Support of the Setup superposition; empty means uniform over X
  /// (Section 3), otherwise uniform over these indices (Figure 3's R).
  std::vector<std::size_t> support;

  std::uint32_t t_init = 0;
  std::uint32_t t_setup = 0;
  std::uint32_t t_eval_forward = 0;

  /// Lower bound on the success mass: P_opt for maximization (e.g. d/2n
  /// from Lemma 1), the promise P_M = 0 or P_M >= epsilon for search.
  double epsilon = 0;
  double delta = 0.01; ///< target failure probability

  /// Branch-evaluation workers: the whole support is evaluated up front
  /// through a core::BranchEvaluator (exactly the branch set every Grover
  /// iterate touches), so results and round accounting are independent of
  /// this value. 1 = inline on the calling thread (safe for any
  /// objective); > 1 requires the objective to be thread-safe; 0 = one
  /// worker per hardware thread.
  std::uint32_t num_threads = 1;
};

/// Costs of a Theorem 7 phase, shared by both report shapes.
struct PhaseReport {
  /// True when a branch simulation (the distributed Evaluation subroutine)
  /// raised a qc::Error — e.g. a bandwidth violation under kEnforce or an
  /// internal consistency failure under a fault plan. The report is then
  /// returned with `failure_reason` instead of propagating the exception;
  /// every other field is meaningless.
  bool subroutine_failed = false;
  std::string failure_reason;

  qsim::SearchCosts costs;            ///< Setup/Grover/check counts
  std::uint64_t distinct_evaluations = 0;  ///< distinct branches simulated

  /// Total CONGEST rounds:
  ///   t_init
  /// + setup_invocations * t_setup                  (fresh preparations)
  /// + grover_iterations * 2*(2*t_eval_forward + t_setup)
  ///     (each iterate: Evaluation, phase, Evaluation^-1 for the oracle —
  ///      the unitary Evaluation itself being forward+revert — and
  ///      Setup^-1, Setup for the reflection)
  /// + candidate_evaluations * t_eval_forward       (classical checks)
  std::uint64_t total_rounds = 0;

  /// Qubit memory per the Theorem 7 analysis: every node holds the data
  /// register plus O(log n) working counters; the leader additionally
  /// records its amplification outcomes of log|X| qubits each
  /// (measurements are deferred to the end): O(log(1/epsilon)) of them for
  /// maximization, one for search.
  std::uint64_t per_node_memory_qubits = 0;
  std::uint64_t leader_memory_qubits = 0;
};

/// A distributed optimization problem: maximize f over X.
struct OptimizationProblem : PhaseProblem {
  /// The objective f, evaluated per basis branch. Deterministic — the
  /// framework memoizes it, exactly as the Evaluation unitary maps equal
  /// branches to equal results.
  std::function<std::int64_t(std::size_t)> evaluate;
};

/// Outcome of distributed quantum optimization with full cost accounting.
struct OptimizationReport : PhaseReport {
  std::size_t argmax = 0;
  std::int64_t value = 0;
  bool budget_exhausted = false;
};

/// Runs Theorem 7: leader-coordinated quantum maximization with the given
/// measured subroutine costs. Randomness comes from `rng` (reproducible).
OptimizationReport distributed_quantum_optimize(const OptimizationProblem& p,
                                                Rng& rng);

/// A distributed *decision* problem in the Theorem 6 (amplitude
/// amplification) setting: is any basis branch marked? This is the shape
/// of the paper's lower-bound statements ("decide whether the diameter is
/// at most d1 or at least d2") and needs no threshold ladder — one
/// amplitude-amplification search suffices, saving a log factor over full
/// maximization.
struct SearchProblem : PhaseProblem {
  /// The checking predicate (implemented as Evaluation + comparison +
  /// Evaluation^-1 on the real machine). Memoized like the optimizer's f.
  std::function<bool(std::size_t)> marked;
};

struct SearchReport : PhaseReport {
  bool found = false;
  std::size_t witness = 0;  ///< a marked element when found
};

/// Runs Theorem 6 distributively with the given measured subroutine costs.
SearchReport distributed_quantum_search(const SearchProblem& p, Rng& rng);

}  // namespace qc::core
