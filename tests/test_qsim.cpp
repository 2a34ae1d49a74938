#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "qsim/amplitude_vector.hpp"
#include "qsim/search.hpp"
#include "qsim/statevector.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qc::qsim {
namespace {

TEST(AmplitudeVector, UniformIsNormalized) {
  auto v = AmplitudeVector::uniform(37);
  EXPECT_NEAR(v.norm_sq(), 1.0, 1e-12);
  EXPECT_NEAR(std::norm(v.amp(0)), 1.0 / 37, 1e-12);
}

TEST(AmplitudeVector, SupportState) {
  auto v = AmplitudeVector::over_support(10, {2, 5, 7});
  EXPECT_NEAR(v.norm_sq(), 1.0, 1e-12);
  EXPECT_NEAR(std::norm(v.amp(5)), 1.0 / 3, 1e-12);
  EXPECT_EQ(v.amp(0), std::complex<double>(0, 0));
}

TEST(AmplitudeVector, SupportRejectsDuplicates) {
  EXPECT_THROW(AmplitudeVector::over_support(4, {1, 1}),
               InvalidArgumentError);
}

TEST(AmplitudeVector, ProbabilityOfPredicate) {
  auto v = AmplitudeVector::uniform(8);
  const double p = v.probability([](std::size_t i) { return i < 2; });
  EXPECT_NEAR(p, 0.25, 1e-12);
}

TEST(AmplitudeVector, PhaseFlipPreservesNorm) {
  auto v = AmplitudeVector::uniform(16);
  v.phase_flip(v.mark([](std::size_t i) { return i % 3 == 0; }));
  EXPECT_NEAR(v.norm_sq(), 1.0, 1e-12);
  EXPECT_LT(v.amp(0).real(), 0);
  EXPECT_GT(v.amp(1).real(), 0);
}

TEST(AmplitudeVector, GroverSingleMarkedAmplifies) {
  // Classic Grover math: with M = 16 and one marked item, after
  // round(pi/4*sqrt(16)) = 3 iterations the marked probability is ~0.96.
  const std::size_t dim = 16, marked_item = 11;
  auto psi0 = AmplitudeVector::uniform(dim);
  auto state = psi0;
  auto pred = [&](std::size_t i) { return i == marked_item; };
  const auto mask = psi0.mark(pred);
  for (int it = 0; it < 3; ++it) state.grover_iterate(mask, psi0);
  EXPECT_GT(state.probability(pred), 0.95);
  EXPECT_NEAR(state.norm_sq(), 1.0, 1e-9);
}

TEST(AmplitudeVector, GroverAngleFormula) {
  // After j iterations the marked probability is sin^2((2j+1) theta) with
  // sin^2(theta) = |M|/N. Check over several j.
  const std::size_t dim = 64;
  const std::size_t marked_count = 3;
  auto pred = [&](std::size_t i) { return i < marked_count; };
  const double theta =
      std::asin(std::sqrt(static_cast<double>(marked_count) / dim));
  auto psi0 = AmplitudeVector::uniform(dim);
  const auto mask = psi0.mark(pred);
  for (int j = 0; j <= 6; ++j) {
    auto state = psi0;
    state.grover_iterate(mask, psi0, static_cast<std::uint64_t>(j));
    const double expect = std::pow(std::sin((2 * j + 1) * theta), 2);
    EXPECT_NEAR(state.probability(pred), expect, 1e-9) << "j=" << j;
  }
}

TEST(AmplitudeVector, SamplingFollowsDistribution) {
  auto v = AmplitudeVector::over_support(4, {1, 3});
  Rng rng(5);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 4000; ++i) ++counts[v.sample(rng)];
  EXPECT_EQ(counts.count(0), 0u);
  EXPECT_EQ(counts.count(2), 0u);
  EXPECT_NEAR(counts[1], 2000, 200);
}

TEST(AmplitudeVector, SampleAtZeroSkipsZeroMassPrefix) {
  // Regression: with u01 == 0.0, the cumulative scan used to stop at the
  // first basis state even when its amplitude was exactly zero, returning
  // a state outside the support. A measurement must never do that.
  auto v = AmplitudeVector::over_support(6, {2, 4});
  EXPECT_EQ(v.sample_at(0.0), 2u);  // first *positive-mass* index
}

TEST(AmplitudeVector, SampleAtAlwaysInSupport) {
  auto v = AmplitudeVector::over_support(8, {1, 3, 6});
  for (double u : {0.0, 1e-18, 0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9,
                   1.0 - 1e-16}) {
    const std::size_t x = v.sample_at(u);
    EXPECT_GT(std::norm(v.amp(x)), 0.0) << "u=" << u;
  }
}

TEST(AmplitudeVector, SampleAtTailFallsBackToLastPopulated) {
  // Rounding in the cumulative sum may leave a sliver of u unconsumed; the
  // fallback must be the last populated state, not a zero-amplitude one.
  auto v = AmplitudeVector::over_support(10, {0, 4});
  EXPECT_EQ(v.sample_at(1.0), 4u);
}

TEST(StateVector, InitialState) {
  StateVector sv(3);
  EXPECT_EQ(sv.dim(), 8u);
  EXPECT_NEAR(sv.probability(0), 1.0, 1e-12);
}

TEST(StateVector, HadamardCreatesUniform) {
  StateVector sv(4);
  sv.h_all();
  for (std::uint64_t i = 0; i < sv.dim(); ++i) {
    EXPECT_NEAR(sv.probability(i), 1.0 / 16, 1e-12);
  }
}

TEST(StateVector, XAndZ) {
  StateVector sv(2);
  sv.x(0);
  EXPECT_NEAR(sv.probability(1), 1.0, 1e-12);
  sv.h(1);
  sv.z(1);
  sv.h(1);  // HZH = X
  EXPECT_NEAR(sv.probability(3), 1.0, 1e-12);
}

TEST(StateVector, CnotEntangles) {
  StateVector sv(2);
  sv.h(0);
  sv.cnot(0, 1);  // Bell state
  EXPECT_NEAR(sv.probability(0b00), 0.5, 1e-12);
  EXPECT_NEAR(sv.probability(0b11), 0.5, 1e-12);
  EXPECT_NEAR(sv.probability(0b01), 0.0, 1e-12);
}

TEST(StateVector, CnotCopyClonesClassicalRegister) {
  // |u>|0> -> |u>|u> for a classical u — the broadcast primitive of
  // Proposition 2.
  StateVector sv(4);
  sv.x(0);  // u = 0b01 in qubits {0,1}
  sv.cnot_copy({0, 1}, {2, 3});
  EXPECT_NEAR(sv.probability(0b0101), 1.0, 1e-12);
}

TEST(StateVector, CnotCopyOnSuperpositionSynchronizes) {
  // (|0>+|1>)|0> -> |00>+|11>: each branch carries a synchronized copy,
  // exactly the state Setup distributes through the network.
  StateVector sv(2);
  sv.h(0);
  sv.cnot_copy({0}, {1});
  EXPECT_NEAR(sv.probability(0b00), 0.5, 1e-12);
  EXPECT_NEAR(sv.probability(0b11), 0.5, 1e-12);
}

TEST(StateVector, PhaseGate) {
  StateVector sv(1);
  sv.h(0);
  sv.phase(0, M_PI);  // Z
  sv.h(0);
  EXPECT_NEAR(sv.probability(1), 1.0, 1e-12);
}

TEST(StateVector, CzSymmetric) {
  StateVector a(2), b(2);
  a.h_all();
  b.h_all();
  a.cz(0, 1);
  b.cz(1, 0);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(std::abs(a.amp(i) - b.amp(i)), 0.0, 1e-12);
  }
}

TEST(StateVector, GateLevelGroverMatchesAmplitudeLevel) {
  // The load-bearing cross-validation: a full Grover run composed from
  // gates must equal AmplitudeVector's algebraic operators amplitude by
  // amplitude.
  const std::uint32_t nq = 5;
  const std::size_t dim = 1ULL << nq;
  const std::uint64_t marked = 19;
  auto pred64 = [&](std::uint64_t i) { return i == marked; };
  auto predsz = [&](std::size_t i) { return i == marked; };

  StateVector sv(nq);
  sv.h_all();
  auto av = AmplitudeVector::uniform(dim);
  const auto psi0 = AmplitudeVector::uniform(dim);
  const auto mask = psi0.mark(predsz);

  for (int it = 0; it < 4; ++it) {
    sv.oracle(pred64);
    sv.grover_diffusion();
    av.grover_iterate(mask, psi0);
    for (std::uint64_t i = 0; i < dim; ++i) {
      ASSERT_NEAR(std::abs(sv.amp(i) - av.amp(i)), 0.0, 1e-9)
          << "iteration " << it << " basis " << i;
    }
  }
}

TEST(StateVector, RejectsTooManyQubits) {
  EXPECT_THROW(StateVector(25), InvalidArgumentError);
}

TEST(StateVector, MeasureQubitCollapsesBellPair) {
  Rng rng(6);
  int agree = 0;
  for (int t = 0; t < 50; ++t) {
    StateVector sv(2);
    sv.h(0);
    sv.cnot(0, 1);
    const auto a = sv.measure_qubit(0, rng);
    const auto b = sv.measure_qubit(1, rng);
    agree += (a == b) ? 1 : 0;
    EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-12);
  }
  EXPECT_EQ(agree, 50);  // perfect correlation
}

TEST(StateVector, MeasureQubitStatistics) {
  Rng rng(7);
  int ones = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    StateVector sv(1);
    sv.h(0);
    ones += sv.measure_qubit(0, rng);
  }
  EXPECT_NEAR(ones / static_cast<double>(trials), 0.5, 0.05);
}

TEST(StateVector, MeasureAllCollapses) {
  Rng rng(8);
  StateVector sv(3);
  sv.h_all();
  const auto outcome = sv.measure_all(rng);
  EXPECT_NEAR(sv.probability(outcome), 1.0, 1e-12);
  // Re-measurement is deterministic.
  EXPECT_EQ(sv.measure_all(rng), outcome);
}

TEST(StateVector, FidelityOfPreparationRoutes) {
  // |+>^3 prepared by H^3 vs by H on q0 and CNOT-copying: different
  // circuits, fidelity tells them apart.
  StateVector a(3), b(3);
  a.h_all();
  b.h(0);
  b.cnot_copy({0}, {1});
  b.cnot_copy({0}, {2});  // GHZ, not |+>^3
  EXPECT_NEAR(a.fidelity(a), 1.0, 1e-12);
  EXPECT_NEAR(a.fidelity(b), 0.25, 1e-12);  // |<+++|GHZ>|^2 = 1/4
  StateVector c(3);
  c.h_all();
  EXPECT_NEAR(a.fidelity(c), 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Amplitude amplification search (Theorem 6).
// ---------------------------------------------------------------------------

TEST(Search, FindsPlantedItem) {
  Rng rng(7);
  const std::size_t dim = 256, planted = 200;
  auto setup = AmplitudeVector::uniform(dim);
  int found = 0;
  for (int trial = 0; trial < 20; ++trial) {
    auto res = amplitude_amplification_search(
        setup, [&](std::size_t i) { return i == planted; }, 1.0 / dim, 0.05,
        rng);
    if (res.found) {
      EXPECT_EQ(res.item, planted);
      ++found;
    }
  }
  EXPECT_GE(found, 19);
}

TEST(Search, DeclaresEmptyWhenNothingMarked) {
  Rng rng(8);
  auto setup = AmplitudeVector::uniform(128);
  auto res = amplitude_amplification_search(
      setup, [](std::size_t) { return false; }, 1.0 / 128, 0.1, rng);
  EXPECT_FALSE(res.found);
  EXPECT_GT(res.costs.grover_iterations, 0u);
}

TEST(Search, CostScalesAsSqrtOfDim) {
  // Empty searches pay the full Theta(sqrt(1/epsilon) log(1/delta))
  // budget; the ratio between dims 4096 and 64 should be ~sqrt(64) = 8.
  Rng rng(9);
  auto cost_for = [&](std::size_t dim) {
    auto setup = AmplitudeVector::uniform(dim);
    auto res = amplitude_amplification_search(
        setup, [](std::size_t) { return false; }, 1.0 / dim, 0.1, rng);
    return static_cast<double>(res.costs.grover_iterations);
  };
  const double ratio = cost_for(4096) / cost_for(64);
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 16.0);
}

TEST(Search, RespectsSupportState) {
  Rng rng(10);
  auto setup = AmplitudeVector::over_support(64, {3, 9, 12, 40});
  auto res = amplitude_amplification_search(
      setup, [](std::size_t i) { return i == 9; }, 0.25, 0.05, rng);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.item, 9u);
}

// ---------------------------------------------------------------------------
// Quantum maximum finding (Corollary 1).
// ---------------------------------------------------------------------------

TEST(Maximize, FindsUniqueMaximum) {
  Rng rng(11);
  const std::size_t dim = 128;
  auto setup = AmplitudeVector::uniform(dim);
  auto f = [](std::size_t x) {
    return static_cast<std::int64_t>((x * 37) % 97);
  };
  std::int64_t best = 0;
  for (std::size_t x = 0; x < dim; ++x) best = std::max(best, f(x));
  int hits = 0;
  for (int trial = 0; trial < 15; ++trial) {
    auto res = quantum_maximize(setup, f, 1.0 / dim, 0.05, rng);
    if (res.value == best) ++hits;
  }
  EXPECT_GE(hits, 14);
}

TEST(Maximize, HandlesManyMaximizers) {
  // The Theorem 1 situation: Popt is d/2n, not 1/n — a constant fraction
  // of basis states achieve the maximum and the search gets cheaper.
  Rng rng(12);
  const std::size_t dim = 256;
  auto setup = AmplitudeVector::uniform(dim);
  auto f = [](std::size_t x) {
    return static_cast<std::int64_t>(x >= 192 ? 5 : (x % 5));
  };
  auto res = quantum_maximize(setup, f, 0.25, 0.05, rng);
  EXPECT_EQ(res.value, 5);
  EXPECT_GE(res.argmax, 192u);
}

TEST(Maximize, ConstantFunction) {
  Rng rng(13);
  auto setup = AmplitudeVector::uniform(32);
  auto res = quantum_maximize(
      setup, [](std::size_t) { return std::int64_t{7}; }, 1.0, 0.1, rng);
  EXPECT_EQ(res.value, 7);
}

TEST(Maximize, CostScalesAsInverseSqrtEpsilon) {
  Rng rng(14);
  auto cost_for = [&](std::size_t dim) {
    auto setup = AmplitudeVector::uniform(dim);
    auto f = [dim](std::size_t x) {
      return static_cast<std::int64_t>(x == dim - 1 ? 1 : 0);
    };
    double total = 0;
    for (int t = 0; t < 8; ++t) {
      auto res = quantum_maximize(setup, f, 1.0 / dim, 0.1, rng);
      total += static_cast<double>(res.costs.grover_iterations);
    }
    return total / 8;
  };
  const double ratio = cost_for(2048) / cost_for(32);
  // sqrt(2048/32) = 8; allow generous slack for the randomized schedule.
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 24.0);
}

TEST(Maximize, SupportRestrictedDomain) {
  // The Figure 3 quantum phase maximizes only over R.
  Rng rng(15);
  std::vector<std::size_t> support{4, 17, 23, 42, 51};
  auto setup = AmplitudeVector::over_support(64, support);
  auto f = [](std::size_t x) { return static_cast<std::int64_t>(x); };
  auto res = quantum_maximize(setup, f, 0.2, 0.05, rng);
  EXPECT_EQ(res.argmax, 51u);  // the max *within the support*
}

TEST(Maximize, ReproducibleForFixedSeed) {
  auto setup = AmplitudeVector::uniform(64);
  auto f = [](std::size_t x) { return static_cast<std::int64_t>(x % 13); };
  Rng r1(77), r2(77);
  auto a = quantum_maximize(setup, f, 1.0 / 64, 0.1, r1);
  auto b = quantum_maximize(setup, f, 1.0 / 64, 0.1, r2);
  EXPECT_EQ(a.argmax, b.argmax);
  EXPECT_EQ(a.costs.grover_iterations, b.costs.grover_iterations);
  EXPECT_EQ(a.costs.setup_invocations, b.costs.setup_invocations);
}

}  // namespace
}  // namespace qc::qsim
