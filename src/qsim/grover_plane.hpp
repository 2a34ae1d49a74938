#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qsim/amplitude_vector.hpp"
#include "util/rng.hpp"

namespace qc::qsim {

/// Exact simulation of amplitude amplification on its invariant plane.
///
/// Fix a Setup state psi0 and a marked set M, and split psi0 into its
/// marked part psi_M (psi0 restricted to M) and unmarked part psi_U. The
/// oracle negates psi_M, and the reflection 2|psi0><psi0| - I maps any
/// lambda_M psi_M + lambda_U psi_U to 2 ov psi0 - (lambda_M psi_M +
/// lambda_U psi_U) with ov = lambda_M |psi_M|^2 + lambda_U |psi_U|^2. So
/// every Grover iterate keeps the state in span{psi_M, psi_U}, and two
/// real coefficients describe it exactly: after j iterates the amplitude
/// of x is c_x * lambda_class(x), where c_x is its amplitude in psi0.
/// This is the fact behind every BBHT / Durr-Hoyer analysis.
///
/// Every Setup state here is uniform over its support (AmplitudeVector::
/// uniform / over_support), so the plane stores only the support and a
/// prefix count of marked branches: an iterate costs O(1) and a measurement
/// O(log |support|) — a binary search over the prefix counts — where
/// AmplitudeVector pays O(dim) for each. AmplitudeVector stays the
/// full-vector reference the plane is tested against.
class GroverPlane {
 public:
  /// The plane of `psi0` split by `marked`, a dim-sized 0/1 mask (see
  /// AmplitudeVector::mark). `psi0` must be uniform over its support.
  /// Starts at psi0: lambda_M = lambda_U = 1.
  GroverPlane(const AmplitudeVector& psi0,
              std::span<const std::uint8_t> marked);

  /// Back to psi0 — a fresh Setup.
  void reset() { lambda_m_ = lambda_u_ = 1.0; }

  /// `times` Grover iterates: phase flip on M, then reflect about psi0.
  /// As in AmplitudeVector::grover_iterate, the global sign of -S_psi0 S_M
  /// is omitted.
  void iterate(std::uint64_t times = 1);

  double lambda_marked() const { return lambda_m_; }
  double lambda_unmarked() const { return lambda_u_; }

  /// |psi_M|^2 and |psi_U|^2: the marked probability P_M of psi0 and the
  /// rest.
  double weight_marked() const { return weight_m_; }
  double weight_unmarked() const { return weight_u_; }

  /// Measures register I (one next_double(), like AmplitudeVector::sample).
  std::size_t sample(Rng& rng) const { return sample_at(rng.next_double()); }

  /// The basis state measured when the uniform draw is `u01` in [0, 1):
  /// the first positive-mass support index whose cumulative mass reaches
  /// u01 * norm. A zero-mass index is never returned — not at u01 = 0, and
  /// not from a class whose coefficient is zero; the numerical-tail
  /// fallback is the last positive-mass index. Matches
  /// AmplitudeVector::sample_at on the same state.
  std::size_t sample_at(double u01) const;

 private:
  /// Populated indices, ascending; empty when psi0 populates every index.
  std::vector<std::size_t> support_;
  /// Marked branches among the first p + 1 support positions.
  std::vector<std::uint32_t> marked_through_;
  double weight_m_ = 0;
  double weight_u_ = 0;
  double lambda_m_ = 1.0;
  double lambda_u_ = 1.0;
};

}  // namespace qc::qsim
