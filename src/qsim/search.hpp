#pragma once

#include <cstdint>
#include <functional>

#include "qsim/amplitude_vector.hpp"
#include "util/rng.hpp"

namespace qc::qsim {

/// Resource counters shared by the search/optimization routines. The
/// distributed layer (core::distributed_quantum_optimize / _search)
/// converts these to CONGEST rounds:
///   rounds = T_init + setup_invocations * T_setup
///               + grover_iterations * 2 * (T_setup + T_eval)
///               + candidate_evaluations * T_eval_forward
/// where T_eval = 2 * T_eval_forward is the Evaluation unitary (each Grover
/// iterate applies it and its inverse plus Setup^-1 / Setup for the
/// reflection; each measurement candidate is verified with one more
/// forward evaluation pass). See core::PhaseReport::total_rounds.
struct SearchCosts {
  std::uint64_t setup_invocations = 0;    ///< fresh Setup preparations
  std::uint64_t grover_iterations = 0;    ///< total amplification iterates
  std::uint64_t candidate_evaluations = 0;///< classical checks of samples

  SearchCosts& operator+=(const SearchCosts& o) {
    setup_invocations += o.setup_invocations;
    grover_iterations += o.grover_iterations;
    candidate_evaluations += o.candidate_evaluations;
    return *this;
  }
};

/// Result of amplitude-amplification search (Theorem 6).
struct SearchResult {
  bool found = false;
  std::size_t item = 0;  ///< a marked item when found
  SearchCosts costs;
};

/// Amplitude amplification with the BBHT schedule for unknown |M|
/// (Brassard-Hoyer-Tapp, Theorem 6): decides whether the marked set is
/// empty under the promise P_M = 0 or P_M >= epsilon, with failure
/// probability <= delta, using O(sqrt(1/epsilon) * log(1/delta)) Setup and
/// Checking (phase-oracle) applications.
///
/// `setup_state` is the state Setup prepares, uniform over its support
/// (AmplitudeVector::uniform / over_support); `marked` is the checking
/// predicate. Every primitive below simulates the iterates exactly on the
/// state's GroverPlane. Randomness (iteration counts j and measurement
/// outcomes) is drawn from `rng`, so runs are reproducible.
SearchResult amplitude_amplification_search(const AmplitudeVector& setup_state,
                                            const BasisPredicate& marked,
                                            double epsilon, double delta,
                                            Rng& rng);

/// Result of quantum maximum finding (Corollary 1).
struct MaximizationResult {
  std::size_t argmax = 0;
  std::int64_t value = 0;
  bool budget_exhausted = false;  ///< the Corollary 1 worst-case abort fired
  SearchCosts costs;
};

/// Quantum maximization (Corollary 1 / Durr-Hoyer threshold search): finds
/// argmax f over the support of `setup_state` with probability >= 1-delta,
/// provided the maximum's probability mass under the setup state is at
/// least epsilon (P_opt >= epsilon). Uses O(sqrt(log(1/delta)/epsilon))
/// Setup and Evaluation applications.
///
/// `f` is the function to maximize. Like the deterministic Evaluation
/// unitary, the same branch always evaluates to the same value, so `f` is
/// invoked once per populated basis value, however many threshold levels
/// the search runs.
MaximizationResult quantum_maximize(const AmplitudeVector& setup_state,
                                    const std::function<std::int64_t(std::size_t)>& f,
                                    double epsilon, double delta, Rng& rng);

/// Result of quantum counting.
struct CountEstimate {
  double fraction = 0;   ///< estimated P_M = |M|/N under the setup state
  SearchCosts costs;
};

/// Quantum counting in the spirit of [BHT98] (the paper Theorem 6 cites):
/// estimates the marked probability P_M of the setup state from sampled
/// Grover experiments. For each depth j in 0..max_depth, `shots` runs of
/// (Setup, j amplification iterates, measure, check) yield success
/// frequencies ~ sin^2((2j+1)*theta) with sin^2(theta) = P_M; a
/// maximum-likelihood fit over theta recovers P_M.
///
/// Statistically honest: only measurement outcomes are used, never the
/// simulator's internal amplitudes. Oracle cost is shots * sum(j).
CountEstimate estimate_marked_fraction(const AmplitudeVector& setup_state,
                                       const BasisPredicate& marked,
                                       std::uint32_t shots,
                                       std::uint32_t max_depth, Rng& rng);

}  // namespace qc::qsim
