#include "qsim/counting.hpp"

#include <cmath>
#include <complex>
#include <vector>

#include "qsim/grover_plane.hpp"
#include "util/error.hpp"

namespace qc::qsim {

PhaseCountEstimate quantum_count_phase_estimation(
    const AmplitudeVector& setup_state, const BasisPredicate& marked,
    std::uint32_t precision_qubits, Rng& rng) {
  require(precision_qubits >= 1 && precision_qubits <= 14,
          "quantum_count_phase_estimation: precision must be in [1, 14]");
  const std::size_t T = 1ULL << precision_qubits;

  // Joint state |c>|x> after the Hadamards and the controlled powers:
  // (1/sqrt(T)) sum_c |c> (x) G^c |psi0>. G^c |psi0> lies in the Grover
  // plane (see GroverPlane), so block c is exactly the coefficient pair
  // (lambda_M, lambda_U) after c iterates.
  const std::vector<std::uint8_t> mask = setup_state.mark(marked);
  GroverPlane plane(setup_state, mask);
  std::vector<double> lambda_m(T), lambda_u(T);
  PhaseCountEstimate est;
  for (std::size_t c = 0; c < T; ++c) {
    if (c > 0) {
      plane.iterate();
      ++est.oracle_calls;
    }
    lambda_m[c] = plane.lambda_marked();
    lambda_u[c] = plane.lambda_unmarked();
  }

  // Inverse QFT on the counting register, computing only the register's
  // outcome distribution: Pr[k] = (1/T^2) sum_x | sum_c w^{-kc} a_c(x) |^2.
  // With a_c(x) = c_x lambda_class(x)[c], the sum over x collapses to two
  // class terms weighted by |psi_M|^2 and |psi_U|^2.
  const double w_m = plane.weight_marked(), w_u = plane.weight_unmarked();
  std::vector<double> prob(T, 0.0);
  const double two_pi = 2.0 * M_PI;
  for (std::size_t k = 0; k < T; ++k) {
    std::complex<double> acc_m{0, 0}, acc_u{0, 0};
    for (std::size_t c = 0; c < T; ++c) {
      const double ang = -two_pi * static_cast<double>(k) *
                         static_cast<double>(c) / static_cast<double>(T);
      const std::complex<double> w(std::cos(ang), std::sin(ang));
      acc_m += lambda_m[c] * w;
      acc_u += lambda_u[c] * w;
    }
    prob[k] = (w_m * std::norm(acc_m) + w_u * std::norm(acc_u)) /
              static_cast<double>(T * T);
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
