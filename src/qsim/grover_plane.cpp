#include "qsim/grover_plane.hpp"

#include <complex>
#include <cstdint>

#include "util/error.hpp"

namespace qc::qsim {

GroverPlane::GroverPlane(const AmplitudeVector& psi0,
                         std::span<const std::uint8_t> marked) {
  require(marked.size() == psi0.dim(), "GroverPlane: mask size mismatch");
  const std::complex<double> zero(0, 0);
  std::complex<double> c = zero;  // the common amplitude of the support
  std::size_t populated = 0;
  for (std::size_t x = 0; x < psi0.dim(); ++x) {
    const std::complex<double> a = psi0.amp(x);
    if (a == zero) continue;
    if (c == zero) c = a;
    require(a == c,
            "GroverPlane: the Setup state must be uniform over its support");
    ++populated;
  }
  // populated >= 1: an AmplitudeVector's norm is 1, so sample_at always has
  // a last position to fall back to.
  require(populated <= UINT32_MAX, "GroverPlane: support too large");
  const bool listed = populated < psi0.dim();
  if (listed) support_.reserve(populated);
  marked_through_.reserve(populated);
  std::uint32_t m = 0;
  for (std::size_t x = 0; x < psi0.dim(); ++x) {
    if (psi0.amp(x) == zero) continue;
    if (marked[x] != 0) ++m;
    if (listed) support_.push_back(x);
    marked_through_.push_back(m);
  }
  weight_m_ = static_cast<double>(m) * std::norm(c);
  weight_u_ = static_cast<double>(populated - m) * std::norm(c);
}

void GroverPlane::iterate(std::uint64_t times) {
  for (std::uint64_t k = 0; k < times; ++k) {
    lambda_m_ = -lambda_m_;  // the oracle
    const double two_ov = 2.0 * (lambda_m_ * weight_m_ + lambda_u_ * weight_u_);
    lambda_m_ = two_ov - lambda_m_;
    lambda_u_ = two_ov - lambda_u_;
  }
}

std::size_t GroverPlane::sample_at(double u01) const {
  const double sq_m = lambda_m_ * lambda_m_, sq_u = lambda_u_ * lambda_u_;
  // Cumulative mass through position p, in units of |c|^2. It never
  // decreases with p, and it stays flat exactly across zero-mass positions
  // (the same operands give the same double), so the first position where
  // it reaches u and is positive carries positive mass.
  const auto cum = [&](std::size_t p) {
    const std::uint32_t m = marked_through_[p];
    return sq_m * static_cast<double>(m) +
           sq_u * static_cast<double>(p + 1 - m);
  };
  const std::size_t n = marked_through_.size();
  const double total = cum(n - 1);
  double u = u01 * total;
  // Numerical tail (or a NaN draw): cum(p) >= total first holds at the
  // last positive-mass position.
  if (!(u <= total)) u = total;
  std::size_t lo = 0, hi = n;  // first p with cum(p) >= u and cum(p) > 0
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const double c = cum(mid);
    if (c >= u && c > 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (lo == n) lo = n - 1;
  return support_.empty() ? lo : support_[lo];
}

}  // namespace qc::qsim
