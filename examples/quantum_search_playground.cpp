// Playground for the quantum-simulation layer on its own: watch Grover
// amplification build up amplitude on a marked item, cross-check the
// gate-level state vector against the algebraic amplitude vector, and run
// quantum maximum finding (Corollary 1) on a toy objective.
//
//   ./quantum_search_playground [--qubits=6] [--marked=13]

#include <cmath>
#include <iostream>

#include "qsim/amplitude_vector.hpp"
#include "qsim/search.hpp"
#include "qsim/statevector.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace qc;
  Cli cli(argc, argv);
  const auto nq = static_cast<std::uint32_t>(cli.get_int("qubits", 6));
  const std::size_t dim = 1ULL << nq;
  const auto marked =
      static_cast<std::size_t>(cli.get_int("marked", 13)) % dim;

  // ---- Grover amplification, gate level vs algebraic level.
  std::cout << "Grover search over " << dim << " items, marked item "
            << marked << ":\n\n";
  qsim::StateVector sv(nq);
  sv.h_all();
  auto av = qsim::AmplitudeVector::uniform(dim);
  const auto psi0 = qsim::AmplitudeVector::uniform(dim);
  const auto pred64 = [marked](std::uint64_t i) { return i == marked; };
  const auto mask =
      psi0.mark([marked](std::size_t i) { return i == marked; });

  const int optimal =
      static_cast<int>(std::round(M_PI / 4 * std::sqrt(dim)));
  Table t({"iteration", "P[marked] (gates)", "P[marked] (algebraic)",
           "theory sin^2((2j+1)theta)"});
  const double theta = std::asin(1.0 / std::sqrt(dim));
  for (int j = 0; j <= optimal + 2; ++j) {
    t.add_row({fmt(j), fmt(sv.probability(marked), 4),
               fmt(std::norm(av.amp(marked)), 4),
               fmt(std::pow(std::sin((2 * j + 1) * theta), 2), 4)});
    sv.oracle(pred64);
    sv.grover_diffusion();
    av.grover_iterate(mask, psi0);
  }
  t.print(std::cout);
  std::cout << "optimal iteration count ~ pi/4*sqrt(N) = " << optimal
            << "; overshooting loses probability again.\n\n";

  // ---- Quantum maximum finding on a toy objective.
  std::cout << "Quantum maximum finding (Corollary 1) on f(x) = "
               "popcount(x)*16 + (x mod 16):\n";
  auto f = [](std::size_t x) {
    return static_cast<std::int64_t>(__builtin_popcountll(x) * 16 +
                                     (x % 16));
  };
  std::int64_t best = 0;
  for (std::size_t x = 0; x < dim; ++x) best = std::max(best, f(x));
  Rng rng(99);
  auto res = qsim::quantum_maximize(qsim::AmplitudeVector::uniform(dim), f,
                                    1.0 / dim, 0.05, rng);
  std::cout << "  found f(" << res.argmax << ") = " << res.value
            << " (true max " << best << ") using "
            << res.costs.grover_iterations << " Grover iterations, "
            << res.costs.setup_invocations << " Setup preparations\n"
            << "  classical exhaustive search would evaluate all " << dim
            << " items; Grover needs ~sqrt(N) oracle calls.\n";
  return res.value == best ? 0 : 1;
}
