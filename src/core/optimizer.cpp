#include "core/optimizer.hpp"

#include <cmath>

#include "core/branch_evaluator.hpp"
#include "qsim/amplitude_vector.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace qc::core {

namespace {

/// The body both entry points share. `sample` runs the amplification on
/// the Setup state with the memoized objective, fills the report's
/// shape-specific fields and returns the search costs; `leader_outcomes`
/// is how many log|X|-qubit outcomes the leader records.
template <typename Report, typename Value, typename Sample>
Report run_phase(const PhaseProblem& p,
                 const std::function<Value(std::size_t)>& f,
                 std::uint64_t leader_outcomes, Sample sample) {
  Report rep;
  // Precondition violations are caller bugs and throw before this; a
  // qc::Error from here on comes from the distributed subroutine (branch
  // simulation) and is surfaced in the report instead.
  try {
    const auto setup_state =
        p.support.empty()
            ? qsim::AmplitudeVector::uniform(p.domain_size)
            : qsim::AmplitudeVector::over_support(p.domain_size, p.support);

    // The shared memo mirrors the determinism of the Evaluation unitary:
    // the same basis branch always evaluates to the same value, so each
    // branch simulation runs once per distinct x (the *quantum* cost is
    // still charged per oracle application via the counters). Every Grover
    // iterate touches the whole populated support, so the full support is
    // prefetched — fanned across num_threads workers — before the sampling
    // loop consumes any randomness.
    BranchEvaluator<Value> branches(f, p.num_threads);
    if (p.support.empty()) {
      branches.prefetch_all(p.domain_size);
    } else {
      branches.prefetch(p.support);
    }

    rep.costs = sample(setup_state,
                       [&branches](std::size_t x) { return branches(x); }, rep);
    rep.distinct_evaluations = branches.distinct_evaluations();

    const std::uint64_t t_eval_unitary = 2ULL * p.t_eval_forward;
    rep.total_rounds =
        p.t_init +
        rep.costs.setup_invocations * static_cast<std::uint64_t>(p.t_setup) +
        rep.costs.grover_iterations *
            (2ULL * t_eval_unitary + 2ULL * p.t_setup) +
        rep.costs.candidate_evaluations *
            static_cast<std::uint64_t>(p.t_eval_forward);

    // Theorem 7 memory analysis. |X| <= domain_size; the working counters
    // of Figures 1-2 are a constant number of O(log domain)-bit registers.
    const std::uint64_t x_bits = qc::bit_width_for(p.domain_size);
    rep.per_node_memory_qubits = x_bits + 4ULL * (x_bits + 2);
    rep.leader_memory_qubits =
        rep.per_node_memory_qubits + x_bits * leader_outcomes;
  } catch (const qc::Error& e) {
    rep.subroutine_failed = true;
    rep.failure_reason = e.what();
  }
  return rep;
}

}  // namespace

OptimizationReport distributed_quantum_optimize(const OptimizationProblem& p,
                                                Rng& rng) {
  require(p.domain_size >= 1, "optimize: empty domain");
  require(p.evaluate != nullptr, "optimize: no objective");
  require(p.epsilon > 0 && p.epsilon <= 1, "optimize: epsilon out of range");
  const auto threshold_levels = static_cast<std::uint64_t>(
      std::ceil(std::log2(1.0 / p.epsilon)) + 1);
  return run_phase<OptimizationReport>(
      p, p.evaluate, threshold_levels,
      [&](const qsim::AmplitudeVector& setup_state, const auto& f,
          OptimizationReport& rep) {
        const auto m =
            qsim::quantum_maximize(setup_state, f, p.epsilon, p.delta, rng);
        rep.argmax = m.argmax;
        rep.value = m.value;
        rep.budget_exhausted = m.budget_exhausted;
        return m.costs;
      });
}

SearchReport distributed_quantum_search(const SearchProblem& p, Rng& rng) {
  require(p.domain_size >= 1, "search: empty domain");
  require(p.marked != nullptr, "search: no predicate");
  require(p.epsilon > 0 && p.epsilon <= 1, "search: epsilon out of range");
  return run_phase<SearchReport>(
      p, p.marked, /*leader_outcomes=*/1,
      [&](const qsim::AmplitudeVector& setup_state, const auto& marked,
          SearchReport& rep) {
        const auto s = qsim::amplitude_amplification_search(
            setup_state, marked, p.epsilon, p.delta, rng);
        rep.found = s.found;
        rep.witness = s.item;
        return s.costs;
      });
}

}  // namespace qc::core
