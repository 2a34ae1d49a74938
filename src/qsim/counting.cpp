#include "qsim/counting.hpp"

#include <cmath>
#include <complex>
#include <vector>

#include "util/error.hpp"

namespace qc::qsim {

PhaseCountEstimate quantum_count_phase_estimation(
    const AmplitudeVector& setup_state, const BasisPredicate& marked,
    std::uint32_t precision_qubits, Rng& rng) {
  require(precision_qubits >= 1 && precision_qubits <= 14,
          "quantum_count_phase_estimation: precision must be in [1, 14]");
  const std::size_t T = 1ULL << precision_qubits;
  const std::size_t dim = setup_state.dim();

  // Joint state |c>|x> after the Hadamards and the controlled powers:
  // (1/sqrt(T)) sum_c |c> (x) G^c |psi0>. Blocks are simulated exactly by
  // walking G once per c.
  std::vector<AmplitudeVector> blocks;
  blocks.reserve(T);
  const std::vector<std::uint8_t> mask = setup_state.mark(marked);
  AmplitudeVector walker = setup_state;
  blocks.push_back(walker);  // c = 0
  PhaseCountEstimate est;
  for (std::size_t c = 1; c < T; ++c) {
    walker.grover_iterate(mask, setup_state);
    ++est.oracle_calls;
    blocks.push_back(walker);
  }

  // Inverse QFT on the counting register, computing only the register's
  // outcome distribution: Pr[k] = (1/T^2) sum_x | sum_c w^{-kc} a_c(x) |^2.
  std::vector<double> prob(T, 0.0);
  const double two_pi = 2.0 * M_PI;
  // Precompute the twiddle factors w^{-kc} row by row.
  for (std::size_t k = 0; k < T; ++k) {
    double pk = 0;
    for (std::size_t x = 0; x < dim; ++x) {
      std::complex<double> acc{0, 0};
      for (std::size_t c = 0; c < T; ++c) {
        const auto a = blocks[c].amp(x);
        if (a == std::complex<double>(0, 0)) continue;
        const double ang = -two_pi * static_cast<double>(k) *
                           static_cast<double>(c) / static_cast<double>(T);
        acc += a * std::complex<double>(std::cos(ang), std::sin(ang));
      }
      pk += std::norm(acc);
    }
    prob[k] = pk / static_cast<double>(T * T);
  }

  // Measure the counting register.
  double u = rng.next_double();
  std::size_t outcome = T - 1;
  for (std::size_t k = 0; k < T; ++k) {
    u -= prob[k];
    if (u <= 0) {
      outcome = k;
      break;
    }
  }

  // The Grover eigenphases are +-2theta; a measured phase phi estimates
  // 2theta/(2pi) or 1 - that, and sin^2(pi*phi) is invariant under the
  // reflection, giving P_M directly.
  est.raw_phase = static_cast<double>(outcome) / static_cast<double>(T);
  est.fraction = std::pow(std::sin(M_PI * est.raw_phase), 2);
  return est;
}

}  // namespace qc::qsim
