#include "qsim/search.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "qsim/grover_plane.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace qc::qsim {

namespace {

/// Emit the aggregated costs of one top-level search primitive as labeled
/// counters. No-op (one relaxed load) when metrics are disabled.
void record_costs(const char* primitive, const SearchCosts& costs) {
  if (!metrics::enabled()) return;
  metrics::count("qsim.grover_iterations", costs.grover_iterations, primitive);
  metrics::count("qsim.setup_invocations", costs.setup_invocations, primitive);
  metrics::count("qsim.candidate_evaluations", costs.candidate_evaluations,
                 primitive);
}

/// One BBHT phase: randomized iteration counts with the classic m <- 6m/5
/// growth, capped at sqrt(1/epsilon). Returns when a marked item is
/// sampled or when the phase's iteration budget is spent. `marked` is the
/// search's marked-set mask and `plane` the Setup state split by it.
SearchResult bbht_phase(GroverPlane& plane,
                        std::span<const std::uint8_t> marked, double epsilon,
                        Rng& rng) {
  SearchResult res;
  const double m_cap = std::max(1.0, std::sqrt(1.0 / epsilon));
  // A phase succeeds with constant probability when P_M >= epsilon and
  // spends O(sqrt(1/epsilon)) iterations; the caller repeats phases to
  // drive the failure probability below delta.
  const auto budget =
      static_cast<std::uint64_t>(std::ceil(3.0 * m_cap)) + 3;
  double m = 1.0;
  while (res.costs.grover_iterations < budget) {
    const auto j = static_cast<std::uint64_t>(
        rng.next_below(static_cast<std::uint64_t>(std::floor(m)) + 1));
    plane.reset();  // a fresh Setup
    ++res.costs.setup_invocations;
    plane.iterate(j);
    res.costs.grover_iterations += j;
    const std::size_t sampled = plane.sample(rng);
    ++res.costs.candidate_evaluations;  // classical check of the sample
    if (marked[sampled] != 0) {
      res.found = true;
      res.item = sampled;
      return res;
    }
    m = std::min(m * 6.0 / 5.0, m_cap);
  }
  return res;
}

/// Amplitude amplification for the marked set `mask`, on `plane` (the
/// Setup state split by `mask`): the body of
/// amplitude_amplification_search, which quantum_maximize also runs once
/// per threshold level on masks built from its cached objective values.
/// The marked set is fixed for the whole search, so every iterate of every
/// phase moves two coefficients of the one plane; each phase starts from
/// a fresh Setup, so the plane may be reused by a later search on the
/// same mask.
SearchResult search_on_plane(GroverPlane& plane,
                             std::span<const std::uint8_t> mask,
                             double epsilon, double delta, Rng& rng) {
  SearchResult total;
  const auto phases = static_cast<std::uint32_t>(
      std::ceil(std::log2(1.0 / delta))) + 1;
  for (std::uint32_t p = 0; p < phases; ++p) {
    SearchResult res = bbht_phase(plane, mask, epsilon, rng);
    total.costs += res.costs;
    if (res.found) {
      total.found = true;
      total.item = res.item;
      record_costs("search", total.costs);
      return total;
    }
  }
  record_costs("search", total.costs);
  return total;  // declared empty
}

}  // namespace

SearchResult amplitude_amplification_search(const AmplitudeVector& setup_state,
                                            const BasisPredicate& marked,
                                            double epsilon, double delta,
                                            Rng& rng) {
  require(epsilon > 0 && epsilon <= 1,
          "amplitude_amplification_search: epsilon must be in (0, 1]");
  require(delta > 0 && delta < 1,
          "amplitude_amplification_search: delta must be in (0, 1)");
  // The oracle is asked once per populated branch, not once per iterate.
  const std::vector<std::uint8_t> mask = setup_state.mark(marked);
  GroverPlane plane(setup_state, mask);
  return search_on_plane(plane, mask, epsilon, delta, rng);
}

MaximizationResult quantum_maximize(
    const AmplitudeVector& setup_state,
    const std::function<std::int64_t(std::size_t)>& f, double epsilon,
    double delta, Rng& rng) {
  require(epsilon > 0 && epsilon <= 1,
          "quantum_maximize: epsilon must be in (0, 1]");
  require(delta > 0 && delta < 1, "quantum_maximize: delta must be in (0, 1)");

  MaximizationResult res;

  // f is deterministic on basis values (the Evaluation unitary), so it is
  // asked once per populated branch; each level's marked set
  // {x : f(x) > f(a)} and every f(a) below are read from this cache.
  std::vector<std::int64_t> value(setup_state.dim());
  const std::vector<std::uint8_t> populated =
      setup_state.mark([&](std::size_t x) {
        value[x] = f(x);
        return true;
      });
  // The level's marked set and the Setup state split by it depend on f(a)
  // only, so both are rebuilt (O(dim)) when the threshold rises, not when
  // a failed level merely halves eps'.
  std::vector<std::uint8_t> marked(populated.size());
  std::optional<GroverPlane> plane;

  // Line (1) of Corollary 1: start from a sample of the setup state (one
  // Setup, one classical evaluation to learn f(a)).
  std::size_t a = setup_state.sample(rng);
  ++res.costs.setup_invocations;
  std::int64_t fa = value[a];
  ++res.costs.candidate_evaluations;

  // Worst-case abort (the final paragraph of the Corollary 1 proof):
  // cap the total work at a constant multiple of the expected
  // sqrt(log(1/delta)/epsilon) iteration count.
  const double log_term = std::log2(1.0 / delta) + 1.0;
  const auto iteration_budget = static_cast<std::uint64_t>(
      std::ceil(24.0 * std::sqrt(1.0 / epsilon) * log_term)) + 24;

  double eps_prime = 0.5;
  for (;;) {
    if (res.costs.grover_iterations >= iteration_budget) {
      res.budget_exhausted = true;
      break;
    }
    if (!plane) {
      for (std::size_t x = 0; x < marked.size(); ++x) {
        marked[x] = populated[x] != 0 && value[x] > fa ? 1 : 0;
      }
      plane.emplace(setup_state, marked);
    }
    // A missed improvement at a shallow level gets retried at the next
    // (deeper) level, so intermediate searches only need constant
    // confidence; the full delta budget is spent at the final level
    // eps' <= eps, whose "empty" verdict terminates the algorithm.
    const double delta_level = eps_prime > epsilon ? 1.0 / 3.0 : delta;
    SearchResult srch =
        search_on_plane(*plane, marked, eps_prime, delta_level, rng);
    res.costs += srch.costs;
    if (srch.found) {
      a = srch.item;           // line (3): raise the threshold
      fa = value[a];
      ++res.costs.candidate_evaluations;
      plane = std::nullopt;  // a new marked set
    } else if (eps_prime > epsilon) {
      eps_prime /= 2;          // line (4): search deeper
    } else {
      break;                   // line (5): no improvement at full depth
    }
  }
  res.argmax = a;
  res.value = fa;
  record_costs("maximize", res.costs);
  return res;
}

CountEstimate estimate_marked_fraction(const AmplitudeVector& setup_state,
                                       const BasisPredicate& marked,
                                       std::uint32_t shots,
                                       std::uint32_t max_depth, Rng& rng) {
  require(shots >= 1, "estimate_marked_fraction: need at least one shot");
  CountEstimate est;

  // Gather success counts per amplification depth.
  const std::vector<std::uint8_t> mask = setup_state.mark(marked);
  GroverPlane plane(setup_state, mask);
  std::vector<std::uint32_t> successes(max_depth + 1, 0);
  for (std::uint32_t j = 0; j <= max_depth; ++j) {
    for (std::uint32_t s = 0; s < shots; ++s) {
      plane.reset();
      ++est.costs.setup_invocations;
      plane.iterate(j);
      est.costs.grover_iterations += j;
      const std::size_t sampled = plane.sample(rng);
      ++est.costs.candidate_evaluations;
      if (mask[sampled] != 0) ++successes[j];
    }
  }

  // Maximum-likelihood fit of theta: Pr[success at depth j] =
  // sin^2((2j+1) theta). Grid search is plenty at this precision.
  const int grid = 4000;
  double best_theta = 0, best_ll = -1e300;
  for (int i = 1; i <= grid; ++i) {
    const double theta = (M_PI / 2) * i / (grid + 1.0);
    double ll = 0;
    for (std::uint32_t j = 0; j <= max_depth; ++j) {
      double p = std::pow(std::sin((2.0 * j + 1.0) * theta), 2);
      p = std::min(1.0 - 1e-9, std::max(1e-9, p));
      ll += successes[j] * std::log(p) +
            (shots - successes[j]) * std::log(1 - p);
    }
    if (ll > best_ll) {
      best_ll = ll;
      best_theta = theta;
    }
  }
  est.fraction = std::pow(std::sin(best_theta), 2);
  record_costs("estimate", est.costs);
  return est;
}

}  // namespace qc::qsim
