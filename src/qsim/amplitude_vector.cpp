#include "qsim/amplitude_vector.hpp"

#include <cmath>

#include "util/error.hpp"

namespace qc::qsim {

AmplitudeVector AmplitudeVector::uniform(std::size_t dim) {
  require(dim >= 1, "AmplitudeVector::uniform: dim must be positive");
  const double a = 1.0 / std::sqrt(static_cast<double>(dim));
  return AmplitudeVector(
      std::vector<std::complex<double>>(dim, std::complex<double>(a, 0)));
}

AmplitudeVector AmplitudeVector::over_support(
    std::size_t dim, const std::vector<std::size_t>& support) {
  require(dim >= 1, "AmplitudeVector::over_support: dim must be positive");
  require(!support.empty(), "AmplitudeVector::over_support: empty support");
  std::vector<std::complex<double>> amps(dim, {0, 0});
  const double a = 1.0 / std::sqrt(static_cast<double>(support.size()));
  for (std::size_t i : support) {
    require(i < dim, "AmplitudeVector::over_support: index out of range");
    require(amps[i] == std::complex<double>(0, 0),
            "AmplitudeVector::over_support: duplicate support index");
    amps[i] = {a, 0};
  }
  return AmplitudeVector(std::move(amps));
}

double AmplitudeVector::probability(const BasisPredicate& pred) const {
  double p = 0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    // Exactly-zero branches are never populated (support states stay on
    // their support under Grover iterates), so the predicate need not be
    // defined there — e.g. f of Figure 3 is only defined on R.
    if (amps_[i] == std::complex<double>(0, 0)) continue;
    if (pred(i)) p += std::norm(amps_[i]);
  }
  return p;
}

double AmplitudeVector::norm_sq() const {
  double p = 0;
  for (const auto& a : amps_) p += std::norm(a);
  return p;
}

std::vector<std::uint8_t> AmplitudeVector::mark(
    const BasisPredicate& pred) const {
  std::vector<std::uint8_t> marked(amps_.size(), 0);
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    // Only populated branches are asked (see probability()).
    if (amps_[i] == std::complex<double>(0, 0)) continue;
    marked[i] = pred(i) ? 1 : 0;
  }
  return marked;
}

namespace {

// The kernels below work on the (real, imag) doubles of each amplitude,
// which std::complex's array layout guarantees. Each product is spelled
// out in the operation order of the std::complex product it replaces
// ((a+bi)(c+di) = (ac - bd) + (ad + bc)i), so every double is
// bit-identical to the complex form. What is dropped is the per-element
// NaN recovery call that the complex product carries without -ffast-math:
// amplitudes are finite, it never fires, and it keeps the loops from
// vectorizing.

/// The oracle on one amplitude: negate it when marked, unless it is zero
/// (negating a zero would only turn +0 into -0). Multiplying by -1 or 1
/// is exact, and keeps the loop free of branches.
inline void flip(std::uint8_t marked, double& ar, double& ai) {
  const double s = (marked != 0 && (ar != 0 || ai != 0)) ? -1.0 : 1.0;
  ar *= s;
  ai *= s;
}

/// ov += conj(p) * a: one term of the overlap <psi0|this>.
inline void add_overlap(double pr, double pi, double ar, double ai,
                        double& ov_re, double& ov_im) {
  const double cpi = -pi;
  ov_re += pr * ar - cpi * ai;
  ov_im += pr * ai + cpi * ar;
}

/// a <- t * p - a with t = 2 <psi0|this>: one amplitude of the reflection.
inline void reflect(double tr, double ti, double pr, double pi, double& ar,
                    double& ai) {
  ar = (tr * pr - ti * pi) - ar;
  ai = (tr * pi + ti * pr) - ai;
}

}  // namespace

void AmplitudeVector::phase_flip(std::span<const std::uint8_t> marked) {
  require(marked.size() == amps_.size(), "phase_flip: mask size mismatch");
  double* a = reinterpret_cast<double*>(amps_.data());
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    flip(marked[i], a[2 * i], a[2 * i + 1]);
  }
}

void AmplitudeVector::reflect_about(const AmplitudeVector& psi0) {
  require(psi0.dim() == dim(), "reflect_about: dimension mismatch");
  // 2 |psi0><psi0| - I applied to |this>: overlap = <psi0|this>.
  const std::size_t n = amps_.size();
  const double* p = reinterpret_cast<const double*>(psi0.amps_.data());
  double* a = reinterpret_cast<double*>(amps_.data());
  double ov_re = 0, ov_im = 0;
  for (std::size_t i = 0; i < n; ++i) {
    add_overlap(p[2 * i], p[2 * i + 1], a[2 * i], a[2 * i + 1], ov_re, ov_im);
  }
  const double tr = 2.0 * ov_re, ti = 2.0 * ov_im;
  for (std::size_t i = 0; i < n; ++i) {
    reflect(tr, ti, p[2 * i], p[2 * i + 1], a[2 * i], a[2 * i + 1]);
  }
}

void AmplitudeVector::grover_iterate(std::span<const std::uint8_t> marked,
                                     const AmplitudeVector& psi0,
                                     std::uint64_t times) {
  require(marked.size() == amps_.size(), "grover_iterate: mask size mismatch");
  require(psi0.dim() == dim(), "grover_iterate: dimension mismatch");
  for (std::uint64_t k = 0; k < times; ++k) {
    phase_flip(marked);
    reflect_about(psi0);
  }
  // The amplitude-amplification operator is -S_psi0 S_M; the global minus
  // sign is physically irrelevant and omitted.
}

std::size_t AmplitudeVector::sample(Rng& rng) const {
  return sample_at(rng.next_double());
}

std::size_t AmplitudeVector::sample_at(double u01) const {
  double u = u01 * norm_sq();
  // Skip zero-mass entries so a boundary draw (u01 == 0.0, or a cumulative
  // sum landing exactly on a support state's edge) can never select a
  // basis state outside the populated support — the branch oracle may be
  // undefined there. The first positive-mass entry absorbs u01 = 0.
  std::size_t last_populated = amps_.size() - 1;  // numerical-tail fallback
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    const double p = std::norm(amps_[i]);
    if (p <= 0) continue;
    last_populated = i;
    u -= p;
    if (u <= 0) return i;
  }
  return last_populated;
}

}  // namespace qc::qsim
