// Gate-algebra identities, amplitude-amplification success-probability
// sweeps, and maximization corner cases for the quantum simulation layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "qsim/amplitude_vector.hpp"
#include "qsim/counting.hpp"
#include "qsim/grover_plane.hpp"
#include "qsim/search.hpp"
#include "qsim/statevector.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/rng.hpp"

namespace qc::qsim {
namespace {

/// Prepares a pseudo-random (but deterministic) state via a gate circuit.
StateVector scrambled_state(std::uint32_t nq, std::uint64_t seed) {
  StateVector sv(nq);
  Rng rng(seed);
  for (int layer = 0; layer < 4; ++layer) {
    for (std::uint32_t q = 0; q < nq; ++q) {
      switch (rng.next_below(3)) {
        case 0: sv.h(q); break;
        case 1: sv.x(q); break;
        default: sv.phase(q, rng.next_double() * 3.0); break;
      }
    }
    for (std::uint32_t q = 0; q + 1 < nq; ++q) {
      if (rng.next_bool(0.5)) sv.cnot(q, q + 1);
    }
  }
  return sv;
}

void expect_states_equal(const StateVector& a, const StateVector& b,
                         const char* what) {
  ASSERT_EQ(a.dim(), b.dim());
  for (std::uint64_t i = 0; i < a.dim(); ++i) {
    ASSERT_NEAR(std::abs(a.amp(i) - b.amp(i)), 0.0, 1e-9)
        << what << " differs at basis " << i;
  }
}

TEST(GateAlgebra, InvolutionsOnRandomStates) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    auto sv = scrambled_state(4, seed);
    auto ref = sv;
    sv.h(2);
    sv.h(2);
    expect_states_equal(sv, ref, "HH");
    sv.x(1);
    sv.x(1);
    expect_states_equal(sv, ref, "XX");
    sv.z(3);
    sv.z(3);
    expect_states_equal(sv, ref, "ZZ");
    sv.cnot(0, 2);
    sv.cnot(0, 2);
    expect_states_equal(sv, ref, "CNOT^2");
    sv.cz(1, 3);
    sv.cz(1, 3);
    expect_states_equal(sv, ref, "CZ^2");
  }
}

TEST(GateAlgebra, HzhEqualsX) {
  auto a = scrambled_state(3, 7);
  auto b = a;
  a.h(1);
  a.z(1);
  a.h(1);
  b.x(1);
  expect_states_equal(a, b, "HZH vs X");
}

TEST(GateAlgebra, CzEqualsHadamardConjugatedCnot) {
  auto a = scrambled_state(3, 9);
  auto b = a;
  a.cz(0, 2);
  b.h(2);
  b.cnot(0, 2);
  b.h(2);
  expect_states_equal(a, b, "CZ vs H CNOT H");
}

TEST(GateAlgebra, PhaseComposition) {
  auto a = scrambled_state(2, 11);
  auto b = a;
  a.phase(0, 0.7);
  a.phase(0, 0.9);
  b.phase(0, 1.6);
  expect_states_equal(a, b, "phase additivity");
}

TEST(GateAlgebra, DiffusionIsAnInvolution) {
  auto sv = scrambled_state(4, 13);
  auto ref = sv;
  sv.grover_diffusion();
  sv.grover_diffusion();
  expect_states_equal(sv, ref, "diffusion^2");
}

TEST(GateAlgebra, OracleIsAnInvolution) {
  auto sv = scrambled_state(4, 15);
  auto ref = sv;
  auto pred = [](std::uint64_t i) { return i % 3 == 1; };
  sv.oracle(pred);
  sv.oracle(pred);
  expect_states_equal(sv, ref, "oracle^2");
}

TEST(ReflectAbout, FixesReferenceAndNegatesOrthogonal) {
  auto psi0 = AmplitudeVector::uniform(8);
  auto fixed = psi0;
  fixed.reflect_about(psi0);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(std::abs(fixed.amp(i) - psi0.amp(i)), 0.0, 1e-12);
  }
  // An orthogonal state: +1/-1 pattern against uniform.
  auto orth = AmplitudeVector::over_support(8, {0, 1});
  // Build (|0> - |1>)/sqrt(2) via phase flip on {1}.
  orth.phase_flip(orth.mark([](std::size_t i) { return i == 1; }));
  auto reflected = orth;
  reflected.reflect_about(psi0);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(std::abs(reflected.amp(i) + orth.amp(i)), 0.0, 1e-12);
  }
}

class AmplificationSuccess
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(AmplificationSuccess, FindsWithHighProbability) {
  const auto [dim, marked_count] = GetParam();
  Rng rng(dim * 31 + marked_count);
  auto setup = AmplitudeVector::uniform(dim);
  auto pred = [m = marked_count](std::size_t i) { return i < m; };
  const double eps = static_cast<double>(marked_count) / dim;
  int found = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    auto res = amplitude_amplification_search(setup, pred, eps, 0.05, rng);
    if (res.found) {
      EXPECT_LT(res.item, marked_count);
      ++found;
    }
  }
  EXPECT_GE(found, trials - 2) << "dim=" << dim << " |M|=" << marked_count;
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndCounts, AmplificationSuccess,
    ::testing::Values(std::pair{16u, 1u}, std::pair{64u, 1u},
                      std::pair{64u, 8u}, std::pair{256u, 3u},
                      std::pair{1024u, 1u}, std::pair{1024u, 100u}));

TEST(Maximize, NegativeValues) {
  Rng rng(17);
  auto setup = AmplitudeVector::uniform(64);
  auto f = [](std::size_t x) {
    return -static_cast<std::int64_t>((x * 13) % 50) - 5;
  };
  std::int64_t best = f(0);
  for (std::size_t x = 0; x < 64; ++x) best = std::max(best, f(x));
  auto res = quantum_maximize(setup, f, 1.0 / 64, 0.05, rng);
  EXPECT_EQ(res.value, best);
}

TEST(Maximize, TinyDomains) {
  Rng rng(19);
  auto one = AmplitudeVector::uniform(1);
  auto res1 = quantum_maximize(
      one, [](std::size_t) { return std::int64_t{42}; }, 1.0, 0.1, rng);
  EXPECT_EQ(res1.value, 42);
  EXPECT_EQ(res1.argmax, 0u);

  auto two = AmplitudeVector::uniform(2);
  auto res2 = quantum_maximize(
      two, [](std::size_t x) { return static_cast<std::int64_t>(x); }, 0.5,
      0.05, rng);
  EXPECT_EQ(res2.argmax, 1u);
}

TEST(Maximize, AllValuesEqualReturnsQuickly) {
  Rng rng(21);
  auto setup = AmplitudeVector::uniform(128);
  auto res = quantum_maximize(
      setup, [](std::size_t) { return std::int64_t{3}; }, 1.0, 0.05, rng);
  EXPECT_EQ(res.value, 3);
  EXPECT_FALSE(res.budget_exhausted);
}

TEST(Maximize, ParameterValidation) {
  Rng rng(23);
  auto setup = AmplitudeVector::uniform(4);
  auto f = [](std::size_t x) { return static_cast<std::int64_t>(x); };
  EXPECT_THROW(quantum_maximize(setup, f, 0.0, 0.1, rng),
               InvalidArgumentError);
  EXPECT_THROW(quantum_maximize(setup, f, 0.5, 1.5, rng),
               InvalidArgumentError);
  EXPECT_THROW(
      amplitude_amplification_search(
          setup, [](std::size_t) { return false; }, 2.0, 0.1, rng),
      InvalidArgumentError);
}

TEST(Counting, TracksDepthBudget) {
  Rng rng(25);
  auto setup = AmplitudeVector::uniform(64);
  auto pred = [](std::size_t i) { return i < 4; };
  auto est = estimate_marked_fraction(setup, pred, 10, 6, rng);
  // shots * sum_{j=0..6} j = 10 * 21 iterations.
  EXPECT_EQ(est.costs.grover_iterations, 10u * 21);
  EXPECT_EQ(est.costs.setup_invocations, 10u * 7);
}

TEST(Counting, MoreShotsImproveAccuracy) {
  auto setup = AmplitudeVector::uniform(256);
  auto pred = [](std::size_t i) { return i < 10; };
  const double truth = 10.0 / 256;
  double coarse_err = 0, fine_err = 0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    Rng r1(100 + s), r2(100 + s);
    coarse_err +=
        std::abs(estimate_marked_fraction(setup, pred, 4, 8, r1).fraction -
                 truth);
    fine_err +=
        std::abs(estimate_marked_fraction(setup, pred, 60, 8, r2).fraction -
                 truth);
  }
  EXPECT_LE(fine_err, coarse_err + 1e-9);
}

class PhaseEstimationCounting
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(PhaseEstimationCounting, RecoversPlantedCounts) {
  const auto [dim, planted] = GetParam();
  auto setup = AmplitudeVector::uniform(dim);
  auto pred = [p = planted](std::size_t i) { return i < p; };
  const double truth = static_cast<double>(planted) / dim;
  // Phase estimation with t bits has additive phase error ~2^-t whp;
  // translate to a fraction tolerance and allow a few repetitions (take
  // the median) to wash out the tail.
  const std::uint32_t t = 7;
  std::vector<double> samples;
  Rng rng(dim * 7 + planted);
  for (int rep = 0; rep < 5; ++rep) {
    samples.push_back(
        quantum_count_phase_estimation(setup, pred, t, rng).fraction);
  }
  const double med = quantile(samples, 0.5);
  const double theta = std::asin(std::sqrt(truth));
  const double tol =
      2 * M_PI / (1 << t) * (2 * std::sqrt(truth * (1 - truth)) + 0.1) +
      std::pow(M_PI / (1 << t), 2);
  EXPECT_NEAR(med, truth, std::max(tol, 0.01))
      << "dim=" << dim << " planted=" << planted << " theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PhaseEstimationCounting,
    ::testing::Values(std::pair{64u, 0u}, std::pair{64u, 4u},
                      std::pair{64u, 16u}, std::pair{64u, 32u},
                      std::pair{128u, 1u}, std::pair{128u, 64u},
                      std::pair{256u, 10u}));

TEST(PhaseEstimationCounting, EmptyAndFullAreExact) {
  auto setup = AmplitudeVector::uniform(32);
  Rng rng(5);
  auto none = quantum_count_phase_estimation(
      setup, [](std::size_t) { return false; }, 6, rng);
  EXPECT_NEAR(none.fraction, 0.0, 1e-9);  // eigenphase exactly 0
  auto all = quantum_count_phase_estimation(
      setup, [](std::size_t) { return true; }, 6, rng);
  EXPECT_NEAR(all.fraction, 1.0, 1e-9);  // eigenphase exactly pi
}

TEST(PhaseEstimationCounting, OracleCallsAreTwoToTheT) {
  auto setup = AmplitudeVector::uniform(16);
  Rng rng(6);
  auto est = quantum_count_phase_estimation(
      setup, [](std::size_t i) { return i == 3; }, 5, rng);
  EXPECT_EQ(est.oracle_calls, (1u << 5) - 1);
}

TEST(PhaseEstimationCounting, AgreesWithSamplingEstimator) {
  // Two independent implementations of [BHT98]-style counting (phase
  // estimation vs ML fit over sampled experiments) must agree.
  auto setup = AmplitudeVector::uniform(128);
  auto pred = [](std::size_t i) { return i < 12; };
  Rng r1(7), r2(7);
  std::vector<double> pe;
  for (int rep = 0; rep < 5; ++rep) {
    pe.push_back(
        quantum_count_phase_estimation(setup, pred, 7, r1).fraction);
  }
  const double phase_est = quantile(pe, 0.5);
  const double ml_est =
      estimate_marked_fraction(setup, pred, 40, 10, r2).fraction;
  EXPECT_NEAR(phase_est, ml_est, 0.05);
  EXPECT_NEAR(phase_est, 12.0 / 128, 0.03);
}

// ---------------------------------------------------------------------------
// Golden values, captured from the std::complex, predicate-per-iterate
// full-vector implementation. They pin every sampled outcome and every cost
// counter of the search primitives, which now run on GroverPlane (the same
// state in exact arithmetic), and every amplitude bit of the
// AmplitudeVector reference kernels.
// ---------------------------------------------------------------------------

constexpr std::size_t kGoldenDim = 1000;

std::int64_t golden_f(std::size_t x) {
  return static_cast<std::int64_t>((x * 7919u + 13u) % 1009u) - 500;
}

bool golden_marked(std::size_t x) { return golden_f(x) > 500; }

std::vector<std::size_t> every_third(std::size_t dim) {
  std::vector<std::size_t> support;
  for (std::size_t i = 0; i < dim; i += 3) support.push_back(i);
  return support;
}

/// FNV-1a over the bit patterns of every amplitude's (real, imag) pair.
std::uint64_t amplitude_hash(const AmplitudeVector& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < v.dim(); ++i) {
    const double parts[2] = {v.amp(i).real(), v.amp(i).imag()};
    unsigned char bytes[sizeof parts];
    std::memcpy(bytes, parts, sizeof parts);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

void expect_costs(const SearchCosts& c, std::uint64_t setups,
                  std::uint64_t iterations, std::uint64_t checks) {
  EXPECT_EQ(c.setup_invocations, setups);
  EXPECT_EQ(c.grover_iterations, iterations);
  EXPECT_EQ(c.candidate_evaluations, checks);
}

TEST(GoldenKernels, MaximizeUniform) {
  Rng rng(2024);
  const auto m = quantum_maximize(AmplitudeVector::uniform(kGoldenDim),
                                  golden_f, 1.0 / kGoldenDim, 0.01, rng);
  EXPECT_EQ(m.argmax, 620u);
  EXPECT_EQ(m.value, 508);
  expect_costs(m.costs, 628, 1684, 633);
}

TEST(GoldenKernels, MaximizeOverSupport) {
  const auto support = every_third(kGoldenDim);
  Rng rng(2024);
  const auto m = quantum_maximize(
      AmplitudeVector::over_support(kGoldenDim, support), golden_f,
      1.0 / static_cast<double>(support.size()), 0.01, rng);
  EXPECT_EQ(m.argmax, 132u);
  EXPECT_EQ(m.value, 506);
  expect_costs(m.costs, 538, 1225, 544);
}

TEST(GoldenKernels, SearchUniformAndOverSupport) {
  Rng r1(7);
  const auto u = amplitude_amplification_search(
      AmplitudeVector::uniform(kGoldenDim), golden_marked, 1.0 / kGoldenDim,
      0.01, r1);
  EXPECT_TRUE(u.found);
  EXPECT_EQ(u.item, 653u);
  expect_costs(u.costs, 11, 12, 11);

  const auto support = every_third(kGoldenDim);
  Rng r2(7);
  const auto s = amplitude_amplification_search(
      AmplitudeVector::over_support(kGoldenDim, support), golden_marked,
      1.0 / static_cast<double>(support.size()), 0.01, r2);
  EXPECT_TRUE(s.found);
  EXPECT_EQ(s.item, 132u);
  expect_costs(s.costs, 10, 6, 10);
}

TEST(GoldenKernels, CountingEstimators) {
  const auto setup = AmplitudeVector::uniform(kGoldenDim);
  Rng r1(11);
  const auto ml = estimate_marked_fraction(setup, golden_marked, 10, 6, r1);
  EXPECT_EQ(ml.fraction, 0x1.0f193be92cc93p-7);
  expect_costs(ml.costs, 70, 210, 70);

  Rng r2(13);
  const auto pe = quantum_count_phase_estimation(setup, golden_marked, 6, r2);
  EXPECT_EQ(pe.fraction, 0x1.3ad06011469fbp-7);
  EXPECT_EQ(pe.raw_phase, 0x1p-5);
  EXPECT_EQ(pe.oracle_calls, 63u);
}

TEST(GoldenKernels, AmplitudeBitsAfterSevenIterates) {
  const auto uniform = AmplitudeVector::uniform(kGoldenDim);
  const auto sparse =
      AmplitudeVector::over_support(kGoldenDim, every_third(kGoldenDim));
  for (const auto* psi0 : {&uniform, &sparse}) {
    const std::uint64_t golden =
        psi0 == &uniform ? 0x0f6bf9cf819894abULL : 0xfbab706dcc00c16bULL;
    const auto mask = psi0->mark(golden_marked);
    // The same seven iterates three ways: as the two primitives, one
    // iterate per call, and seven iterates in one call.
    auto by_parts = *psi0;
    auto one_by_one = *psi0;
    auto at_once = *psi0;
    for (int it = 0; it < 7; ++it) {
      by_parts.phase_flip(mask);
      by_parts.reflect_about(*psi0);
      one_by_one.grover_iterate(mask, *psi0);
    }
    at_once.grover_iterate(mask, *psi0, 7);
    EXPECT_EQ(amplitude_hash(by_parts), golden);
    EXPECT_EQ(amplitude_hash(one_by_one), golden);
    EXPECT_EQ(amplitude_hash(at_once), golden);
  }
}

TEST(GoldenKernels, ZeroIteratesLeaveTheStateAlone) {
  const auto psi0 = AmplitudeVector::uniform(16);
  auto state = psi0;
  state.grover_iterate(psi0.mark([](std::size_t i) { return i == 3; }), psi0,
                       0);
  EXPECT_EQ(amplitude_hash(state), amplitude_hash(psi0));
}

TEST(GoldenKernels, MaskAsksThePredicateOnlyOnPopulatedBranches) {
  const auto support = every_third(30);
  const auto setup = AmplitudeVector::over_support(30, support);
  std::vector<std::size_t> asked;
  const auto mask = setup.mark([&](std::size_t x) {
    asked.push_back(x);
    return x % 2 == 0;
  });
  EXPECT_EQ(asked, support);
  ASSERT_EQ(mask.size(), 30u);
  for (std::size_t x = 0; x < 30; ++x) {
    EXPECT_EQ(mask[x], x % 3 == 0 && x % 2 == 0 ? 1 : 0) << x;
  }
  auto state = setup;
  EXPECT_THROW(state.phase_flip(std::vector<std::uint8_t>(29, 0)), Error);
}

TEST(GoldenKernels, SearchAsksThePredicateOncePerBranch) {
  // However many iterates a search runs, the oracle is asked at most once
  // per populated branch plus once per checked sample.
  const auto support = every_third(kGoldenDim);
  const auto setup = AmplitudeVector::over_support(kGoldenDim, support);
  for (const std::size_t marked_item : {kGoldenDim, std::size_t{132}}) {
    std::uint64_t calls = 0;
    Rng rng(3);
    const auto res = amplitude_amplification_search(
        setup,
        [&](std::size_t x) {
          ++calls;
          return x == marked_item;
        },
        1.0 / static_cast<double>(support.size()), 0.01, rng);
    EXPECT_EQ(res.found, marked_item < kGoldenDim);
    EXPECT_GT(res.costs.grover_iterations, 0u);
    EXPECT_LE(calls, support.size() + res.costs.candidate_evaluations);
  }
}

TEST(GoldenKernels, MaximizeAsksTheObjectiveOncePerBranch) {
  // Every threshold level searches a different marked set, but all of them
  // are read from one evaluation of f per populated branch; the outcome is
  // MaximizeUniform's / MaximizeOverSupport's.
  const auto support = every_third(kGoldenDim);
  for (const bool sparse : {false, true}) {
    const auto setup =
        sparse ? AmplitudeVector::over_support(kGoldenDim, support)
               : AmplitudeVector::uniform(kGoldenDim);
    std::vector<std::uint32_t> calls(kGoldenDim, 0);
    Rng rng(2024);
    const auto m = quantum_maximize(
        setup,
        [&](std::size_t x) {
          ++calls.at(x);
          return golden_f(x);
        },
        sparse ? 1.0 / static_cast<double>(support.size())
               : 1.0 / kGoldenDim,
        0.01, rng);
    EXPECT_EQ(m.argmax, sparse ? 132u : 620u);
    EXPECT_EQ(*std::max_element(calls.begin(), calls.end()), 1u);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(calls.begin(), calls.end(), 1u)),
              sparse ? support.size() : kGoldenDim);
  }
}


// ---------------------------------------------------------------------------
// GroverPlane: the two-coefficient form of amplitude amplification that the
// search primitives run on, checked against the full-vector reference.
// ---------------------------------------------------------------------------

/// One Setup state with one marked set, plus a name for failure messages.
struct PlaneCase {
  std::string name;
  AmplitudeVector psi0;
  std::vector<std::uint8_t> mask;
};

/// Dims {1, 2, 17, 1000} x {uniform, every third} supports x marked sets
/// {none, one, all, golden_marked}.
std::vector<PlaneCase> plane_cases() {
  std::vector<PlaneCase> cases;
  for (const std::size_t dim : {1u, 2u, 17u, 1000u}) {
    for (const bool sparse : {false, true}) {
      const auto psi0 = sparse ? AmplitudeVector::over_support(
                                     dim, every_third(dim))
                               : AmplitudeVector::uniform(dim);
      const std::size_t one = sparse ? every_third(dim).back() : dim / 2;
      const std::pair<const char*, BasisPredicate> marks[] = {
          {"none", [](std::size_t) { return false; }},
          {"one", [one](std::size_t x) { return x == one; }},
          {"all", [](std::size_t) { return true; }},
          {"golden", golden_marked}};
      for (const auto& [mark_name, pred] : marks) {
        cases.push_back({"dim=" + std::to_string(dim) +
                             (sparse ? " every_third " : " uniform ") +
                             mark_name,
                         psi0, psi0.mark(pred)});
      }
    }
  }
  return cases;
}

/// c_x * lambda_class(x): the plane's amplitude of x.
double plane_amp(const PlaneCase& c, const GroverPlane& plane,
                 std::size_t x) {
  const double lambda = c.mask[x] != 0 ? plane.lambda_marked()
                                       : plane.lambda_unmarked();
  return c.psi0.amp(x).real() * lambda;
}

TEST(GroverPlane, MatchesTheFullVectorReference) {
  for (const auto& c : plane_cases()) {
    GroverPlane plane(c.psi0, c.mask);
    auto ref = c.psi0;
    for (int j = 0; j <= 64; ++j) {
      for (std::size_t x = 0; x < ref.dim(); ++x) {
        ASSERT_EQ(ref.amp(x).imag(), 0.0);
        ASSERT_NEAR(plane_amp(c, plane, x), ref.amp(x).real(), 1e-12)
            << c.name << " j=" << j << " x=" << x;
      }
      plane.iterate();
      ref.grover_iterate(c.mask, c.psi0);
    }
    // iterate(j) after reset() is the same state as j single iterates.
    GroverPlane at_once(c.psi0, c.mask);
    at_once.iterate(65);
    EXPECT_EQ(at_once.lambda_marked(), plane.lambda_marked()) << c.name;
    EXPECT_EQ(at_once.lambda_unmarked(), plane.lambda_unmarked()) << c.name;
    at_once.reset();
    EXPECT_EQ(at_once.lambda_marked(), 1.0);
    EXPECT_EQ(at_once.lambda_unmarked(), 1.0);
  }
}

TEST(GroverPlane, SamplesLikeTheReference) {
  const double below_one = std::nextafter(1.0, 0.0);
  for (const auto& c : plane_cases()) {
    GroverPlane plane(c.psi0, c.mask);
    auto ref = c.psi0;
    for (int j = 0; j <= 16; ++j) {
      EXPECT_EQ(plane.sample_at(0.0), ref.sample_at(0.0))
          << c.name << " j=" << j;
      EXPECT_EQ(plane.sample_at(below_one), ref.sample_at(below_one))
          << c.name << " j=" << j;
      // The midpoint of every cell of the reference's measurement: both
      // samplers must land in that cell. Cells thinner than the rounding
      // of a cumulative sum have no well-defined midpoint and are skipped.
      const double norm = ref.norm_sq();
      double before = 0;
      for (std::size_t x = 0; x < ref.dim(); ++x) {
        const double p = std::norm(ref.amp(x));
        if (p <= 0) continue;
        const double u01 = (before + p / 2) / norm;
        before += p;
        if (p < 1e-12) continue;
        ASSERT_EQ(ref.sample_at(u01), x) << c.name << " j=" << j;
        ASSERT_EQ(plane.sample_at(u01), x) << c.name << " j=" << j;
      }
      plane.iterate();
      ref.grover_iterate(c.mask, c.psi0);
    }
  }
}

TEST(GroverPlane, NeverSamplesAZeroMassClass) {
  const double below_one = std::nextafter(1.0, 0.0);
  const double draws[] = {0.0, 1e-18, 0.25, 0.5, 0.75, below_one};
  // No branch marked / every branch marked: the empty class has no mass,
  // and every draw lands on the support inside the other class.
  for (const bool all : {false, true}) {
    const auto psi0 = AmplitudeVector::over_support(30, every_third(30));
    const auto mask = psi0.mark([all](std::size_t) { return all; });
    GroverPlane plane(psi0, mask);
    for (int j = 0; j <= 20; ++j) {
      for (const double u : draws) {
        const std::size_t x = plane.sample_at(u);
        EXPECT_EQ(x % 3, 0u) << "all=" << all << " j=" << j << " u=" << u;
        EXPECT_EQ(mask[x], all ? 1 : 0);
      }
      plane.iterate();
    }
  }
  // P_M = 1/4 exactly: one iterate rotates psi0 onto the marked branch,
  // lambda_U is exactly 0, and the unmarked class must never be sampled —
  // not even at u01 = 0, where the first three indices would absorb the
  // draw if zero-mass cells were not skipped.
  const auto psi0 = AmplitudeVector::uniform(4);
  GroverPlane plane(psi0, psi0.mark([](std::size_t x) { return x == 3; }));
  plane.iterate();
  ASSERT_EQ(plane.lambda_unmarked(), 0.0);
  for (const double u : draws) EXPECT_EQ(plane.sample_at(u), 3u) << u;
}

TEST(GroverPlane, RejectsWhatItCannotRepresent) {
  const auto psi0 = AmplitudeVector::uniform(8);
  const auto mask = psi0.mark([](std::size_t x) { return x == 3; });
  EXPECT_THROW(GroverPlane(psi0, std::vector<std::uint8_t>(7, 0)),
               InvalidArgumentError);
  // A Setup state is uniform over its support; an evolved state is not.
  auto evolved = psi0;
  evolved.grover_iterate(mask, psi0);
  EXPECT_THROW(GroverPlane(evolved, mask), InvalidArgumentError);
}

}  // namespace
}  // namespace qc::qsim
