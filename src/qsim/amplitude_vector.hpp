#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace qc::qsim {

/// Predicate over basis indices (the "marked set" M of Section 2.3).
using BasisPredicate = std::function<bool(std::size_t)>;

/// Exact amplitude-level simulation of the internal register.
///
/// The distributed algorithms of Sections 3-4 keep the *global* network
/// state in the invariant form  sum_x alpha_x |x>_I (x) |data(x)> |init>:
/// everything outside the leader's internal register I is a classical
/// function of the basis value x. Amplitude amplification therefore acts on
/// the coefficient vector (alpha_x) exactly as on the full state, and
/// tracking that vector is a *lossless* simulation of the quantum
/// evolution — not an approximation (see DESIGN.md §4.1).
///
/// The gate-level qsim::StateVector validates these operators on small
/// power-of-two dimensions. The search primitives run the same evolution
/// on qsim::GroverPlane, its exact two-coefficient form; this class is the
/// full-vector reference the plane is tested against.
class AmplitudeVector {
 public:
  /// Uniform superposition over [0, dim) — the Setup state of Section 3.1.
  static AmplitudeVector uniform(std::size_t dim);

  /// Uniform superposition over `support` within a dim-sized basis — the
  /// Setup state of the Figure 3 quantum phase (uniform over R).
  static AmplitudeVector over_support(std::size_t dim,
                                      const std::vector<std::size_t>& support);

  std::size_t dim() const { return amps_.size(); }
  std::complex<double> amp(std::size_t i) const { return amps_[i]; }

  /// Sum of |alpha_x|^2 over x with pred(x) — the P_M of Section 2.3.
  double probability(const BasisPredicate& pred) const;

  /// Total squared norm (should stay 1 up to rounding; tested).
  double norm_sq() const;

  /// The marked set M as a dim()-sized 0/1 mask: pred(x) for every
  /// populated x, 0 elsewhere. Grover iterates keep the support of their
  /// setup state, so one mask of the setup state serves a whole search
  /// and the oracle is evaluated once per branch instead of once per
  /// branch per iterate.
  std::vector<std::uint8_t> mark(const BasisPredicate& pred) const;

  /// Oracle: alpha_x -> -alpha_x for marked x (marked[x] != 0). This is
  /// what the Evaluation/Checking unitary pair (compute f, phase,
  /// uncompute f) does to the internal register. A zero amplitude is
  /// never flipped.
  void phase_flip(std::span<const std::uint8_t> marked);

  /// Reflection 2|psi0><psi0| - I about a reference state — the
  /// Setup^-1 (reflect about |0>) Setup sandwich of amplitude
  /// amplification.
  void reflect_about(const AmplitudeVector& psi0);

  /// `times` Grover/amplitude-amplification iterates, each phase_flip
  /// then reflect_about(psi0). The full-vector reference: searches run on
  /// GroverPlane, which tests compare against this.
  void grover_iterate(std::span<const std::uint8_t> marked,
                      const AmplitudeVector& psi0, std::uint64_t times = 1);

  /// Samples a basis state from |alpha|^2 (a measurement of register I;
  /// the state is not collapsed because every use in the framework
  /// discards the register and re-runs Setup afterwards).
  std::size_t sample(Rng& rng) const;

  /// Deterministic core of sample(): the basis state measured when the
  /// uniform draw is `u01` in [0, 1). Zero-amplitude states are never
  /// returned — even at the u01 = 0 boundary — so the result always lies
  /// in the populated support, where the branch oracle is defined (f of
  /// Figure 3 is only defined on R). Exposed for boundary tests.
  std::size_t sample_at(double u01) const;

 private:
  explicit AmplitudeVector(std::vector<std::complex<double>> amps)
      : amps_(std::move(amps)) {}
  std::vector<std::complex<double>> amps_;
};

}  // namespace qc::qsim
