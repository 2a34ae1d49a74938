#pragma once

#include <cstdint>
#include <functional>

#include "qsim/amplitude_vector.hpp"
#include "qsim/search.hpp"
#include "util/rng.hpp"

namespace qc::qsim {

/// Quantum counting by phase estimation on the Grover operator — the
/// [BHT98] algorithm behind Theorem 6, implemented literally.
///
/// The Grover iterate G rotates the 2D span of the marked/unmarked
/// components by 2θ with sin²θ = P_M, so its eigenphases are ±2θ. Phase
/// estimation with a t-qubit counting register applies controlled-G^{2^j}
/// for each counting qubit j, inverse-QFTs the register and measures,
/// yielding an estimate of 2θ/2π to t-bit precision — hence |M| ≈ N·sin²θ
/// with additive error O(√(|M|·N)/2^t + N/4^t).
///
/// The simulation is block-wise exact: for each counting-register basis
/// value c the search register evolves under G^c, and the inverse QFT and
/// measurement act on the exact joint amplitudes. Only the final
/// measurement uses randomness.
struct PhaseCountEstimate {
  double fraction = 0;       ///< estimated P_M
  double raw_phase = 0;      ///< measured phase in [0, 1)
  std::uint64_t oracle_calls = 0;  ///< total (controlled) G applications
};

/// Runs quantum counting with a `precision_qubits`-bit counting register.
/// `setup_state` must be uniform over its support (the algorithm only
/// assumes G is built from phase_flip(marked) and reflect_about(setup_state);
/// the blocks G^c|psi0> are simulated on its GroverPlane).
PhaseCountEstimate quantum_count_phase_estimation(
    const AmplitudeVector& setup_state, const BasisPredicate& marked,
    std::uint32_t precision_qubits, Rng& rng);

}  // namespace qc::qsim
