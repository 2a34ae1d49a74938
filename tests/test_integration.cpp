// Cross-module integration and property tests: end-to-end runs on the
// lower-bound gadget networks, determinism of whole reports, and failure
// injection (bandwidth starvation) against the model-enforcement machinery.

#include <gtest/gtest.h>

#include <algorithm>

#include "algos/apsp_census.hpp"
#include "algos/diameter_classical.hpp"
#include "algos/evaluation.hpp"
#include "algos/hprw.hpp"
#include "commcc/disjointness.hpp"
#include "commcc/reductions.hpp"
#include "commcc/two_party.hpp"
#include "core/quantum_approx.hpp"
#include "core/quantum_diameter.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace qc {
namespace {

using graph::Graph;
using graph::NodeId;

Graph random_graph(std::uint32_t n, std::uint32_t d, std::uint64_t seed) {
  Rng rng(seed);
  return graph::make_random_with_diameter(n, d, rng);
}

// ---------------------------------------------------------------------------
// Differential property sweep: four independent implementations must agree.
// ---------------------------------------------------------------------------

class DifferentialSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t,
                                                 std::uint64_t>> {};

TEST_P(DifferentialSweep, AllDiameterImplementationsAgree) {
  const auto [n, d, seed] = GetParam();
  auto g = random_graph(n, d, seed);
  const std::uint32_t truth = graph::diameter(g);  // centralized reference

  auto classical = algos::classical_exact_diameter(g);
  EXPECT_EQ(classical.diameter, truth);

  auto census = algos::classical_apsp_census(g);
  EXPECT_EQ(census.diameter, truth);

  core::QuantumConfig cfg;
  cfg.seed = seed ^ 0xabcd;
  auto quantum = core::quantum_diameter_exact(g, cfg);
  EXPECT_EQ(quantum.diameter, truth);

  auto simple = core::quantum_diameter_simple(g, cfg);
  EXPECT_EQ(simple.diameter, truth);
}

INSTANTIATE_TEST_SUITE_P(
    ManySeeds, DifferentialSweep,
    ::testing::Values(std::tuple{18u, 4u, 1ULL}, std::tuple{18u, 4u, 2ULL},
                      std::tuple{25u, 6u, 3ULL}, std::tuple{25u, 9u, 4ULL},
                      std::tuple{33u, 5u, 5ULL}, std::tuple{33u, 12u, 6ULL},
                      std::tuple{41u, 7u, 7ULL}, std::tuple{41u, 15u, 8ULL},
                      std::tuple{52u, 10u, 9ULL},
                      std::tuple{52u, 3u, 10ULL}));

// ---------------------------------------------------------------------------
// End-to-end on the lower-bound gadget networks.
// ---------------------------------------------------------------------------

TEST(GadgetEndToEnd, QuantumDecidesHw12Instances) {
  auto red = commcc::hw12_reduction(5);
  Rng rng(19);
  core::QuantumConfig cfg;
  cfg.oracle = core::OracleMode::kDirect;
  for (int t = 0; t < 4; ++t) {
    const bool inter = t % 2 == 0;
    auto [x, y] = commcc::random_disj_instance(red.k, inter, rng);
    auto g = red.instantiate(x, y);
    cfg.seed = 100 + t;
    auto rep = core::quantum_diameter_exact(g, cfg);
    EXPECT_EQ(rep.diameter, inter ? red.d2 : red.d1);
  }
}

TEST(GadgetEndToEnd, QuantumComputesSubdividedAchk16) {
  auto red = commcc::achk16_reduction(6);
  Rng rng(23);
  core::QuantumConfig cfg;
  cfg.oracle = core::OracleMode::kDirect;
  for (std::uint32_t d : {3u, 9u}) {
    for (bool inter : {false, true}) {
      auto [x, y] = commcc::random_disj_instance(red.k, inter, rng);
      auto g = commcc::subdivide_cut(red, x, y, d);
      cfg.seed = d * 2 + inter;
      auto rep = core::quantum_diameter_exact(g, cfg);
      EXPECT_EQ(rep.diameter, (inter ? red.d2 : red.d1) + d)
          << "d=" << d << " inter=" << inter;
    }
  }
}

TEST(GadgetEndToEnd, ApproxOnGadgetsWithinGuarantee) {
  auto red = commcc::achk16_reduction(8);
  Rng rng(29);
  auto [x, y] = commcc::random_disj_instance(red.k, true, rng);
  auto g = commcc::subdivide_cut(red, x, y, 6);
  core::QuantumConfig cfg;
  cfg.oracle = core::OracleMode::kDirect;
  auto rep = core::quantum_diameter_approx(g, cfg);
  ASSERT_FALSE(rep.aborted);
  const auto truth = graph::diameter(g);
  EXPECT_LE(rep.estimate, truth);
  EXPECT_GE(3 * rep.estimate, 2 * truth);
}

// ---------------------------------------------------------------------------
// Determinism of full reports.
// ---------------------------------------------------------------------------

TEST(Determinism, QuantumReportsAreBitIdentical) {
  auto g = random_graph(36, 7, 41);
  core::QuantumConfig cfg;
  cfg.seed = 77;
  auto a = core::quantum_diameter_exact(g, cfg);
  auto b = core::quantum_diameter_exact(g, cfg);
  EXPECT_EQ(a.diameter, b.diameter);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.costs.grover_iterations, b.costs.grover_iterations);
  EXPECT_EQ(a.costs.setup_invocations, b.costs.setup_invocations);
  EXPECT_EQ(a.costs.candidate_evaluations, b.costs.candidate_evaluations);
  EXPECT_EQ(a.distinct_branch_evaluations, b.distinct_branch_evaluations);
}

TEST(Determinism, DifferentSeedsMayDifferButStayCorrect) {
  auto g = random_graph(36, 7, 43);
  core::QuantumConfig cfg;
  std::vector<std::uint64_t> rounds;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    cfg.seed = s;
    auto rep = core::quantum_diameter_exact(g, cfg);
    EXPECT_EQ(rep.diameter, 7u);
    rounds.push_back(rep.total_rounds);
  }
  // Randomized iteration counts: at least two distinct trajectories.
  std::sort(rounds.begin(), rounds.end());
  EXPECT_NE(rounds.front(), rounds.back());
}

// ---------------------------------------------------------------------------
// Failure injection: bandwidth starvation.
// ---------------------------------------------------------------------------

TEST(FailureInjection, StarvedBandwidthIsDetected) {
  auto g = random_graph(40, 8, 47);
  auto tree = algos::build_bfs_tree(g, 0).tree;
  congest::NetworkConfig starved;
  starved.bandwidth_bits = 4;  // far below the O(log n) requirement
  EXPECT_THROW(
      algos::evaluate_window_ecc(g, tree, 3, 2 * tree.height, starved),
      BandwidthViolationError);
}

TEST(FailureInjection, RecordPolicyCountsButCompletes) {
  auto g = random_graph(40, 8, 47);
  congest::NetworkConfig starved;
  starved.bandwidth_bits = 4;
  starved.policy = congest::BandwidthPolicy::kRecord;
  auto tree = algos::build_bfs_tree(g, 0, starved).tree;
  auto eval = algos::evaluate_window_ecc(g, tree, 3, 2 * tree.height, starved);
  EXPECT_GT(eval.stats.violations, 0u);
  // Delivery still happened (the recorder is an auditor, not a dropper),
  // so the result is still correct.
  auto num = graph::dfs_numbering(tree.to_bfs_tree());
  EXPECT_EQ(eval.max_ecc,
            graph::max_ecc_in_segment(g, num, 3, 2 * tree.height));
}

TEST(FailureInjection, GenerousBandwidthNeverViolates) {
  auto g = random_graph(40, 8, 47);
  congest::NetworkConfig roomy;
  roomy.bandwidth_bits = 256;
  auto out = algos::classical_exact_diameter(g, roomy);
  EXPECT_EQ(out.stats.violations, 0u);
  EXPECT_EQ(out.diameter, 8u);
}

// ---------------------------------------------------------------------------
// Cut metering composed with full drivers.
// ---------------------------------------------------------------------------

TEST(CutMeterIntegration, QuantumSolverOnGadget) {
  auto red = commcc::hw12_reduction(4);
  Rng rng(53);
  auto [x, y] = commcc::random_disj_instance(red.k, false, rng);
  commcc::DiameterSolver solver = [](const Graph& g,
                                     const congest::NetworkConfig& net) {
    core::QuantumConfig cfg;
    cfg.net = net;
    cfg.oracle = core::OracleMode::kDirect;
    auto rep = core::quantum_diameter_exact(g, cfg);
    return std::pair{rep.diameter,
                     static_cast<std::uint32_t>(rep.total_rounds)};
  };
  auto run = commcc::two_party_diameter_protocol(red, x, y, solver);
  EXPECT_TRUE(run.decided_disjoint);
  EXPECT_GT(run.cut_bits, 0u);
  // Theorem 10 charges full capacity; the actual traffic of the phases we
  // simulate is necessarily below it.
  EXPECT_GE(run.costs.qubits, run.cut_bits);
}

// ---------------------------------------------------------------------------
// Fuzz: masked evaluation on random ancestor-closed balls.
// ---------------------------------------------------------------------------

class MaskedEvaluationFuzz : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MaskedEvaluationFuzz, MatchesMaskedCentralizedReference) {
  Rng rng(GetParam());
  auto g = random_graph(28 + rng.next_below(20), 4 + rng.next_below(8),
                        GetParam() * 17);
  const auto root = static_cast<NodeId>(rng.next_below(g.n()));
  auto tree = algos::build_bfs_tree(g, root).tree;
  // Random ancestor-closed mask: keep a depth ball plus the root.
  const std::uint32_t cut = 1 + rng.next_below(std::max(1u, tree.height));
  std::vector<bool> keep(g.n());
  for (NodeId v = 0; v < g.n(); ++v) keep[v] = tree.depth[v] <= cut;
  auto sub = graph::induced_subtree(tree.to_bfs_tree(), keep);
  auto num = graph::dfs_numbering(sub);

  const std::uint32_t steps = rng.next_below(2 * sub.height + 6);
  auto eval = algos::evaluate_window_ecc(g, tree, root, steps, {}, &keep);
  auto seg = graph::segment_window(num, root, steps);
  EXPECT_EQ(eval.window, seg.members) << "seed " << GetParam();
  EXPECT_EQ(eval.max_ecc,
            graph::max_ecc_in_segment(g, num, root, steps));
  for (NodeId v : eval.window) EXPECT_TRUE(keep[v]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskedEvaluationFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Public-API precondition checks (core).
// ---------------------------------------------------------------------------

TEST(Preconditions, OptimizerRejectsBadInputs) {
  Rng rng(1);
  core::OptimizationProblem p;
  p.domain_size = 0;
  EXPECT_THROW(core::distributed_quantum_optimize(p, rng),
               InvalidArgumentError);
  p.domain_size = 4;
  p.evaluate = nullptr;
  EXPECT_THROW(core::distributed_quantum_optimize(p, rng),
               InvalidArgumentError);
  p.evaluate = [](std::size_t) { return std::int64_t{0}; };
  p.epsilon = 0;
  EXPECT_THROW(core::distributed_quantum_optimize(p, rng),
               InvalidArgumentError);
}

TEST(Preconditions, SearchRejectsBadInputs) {
  Rng rng(2);
  core::SearchProblem p;
  p.domain_size = 4;
  p.marked = nullptr;
  p.epsilon = 0.5;
  EXPECT_THROW(core::distributed_quantum_search(p, rng),
               InvalidArgumentError);
}

TEST(Preconditions, EvaluationRejectsBadMask) {
  auto g = random_graph(20, 4, 3);
  auto tree = algos::build_bfs_tree(g, 0).tree;
  std::vector<bool> not_containing_u0(g.n(), true);
  not_containing_u0[5] = false;
  EXPECT_THROW(
      algos::evaluate_window_ecc(g, tree, 5, 4, {}, &not_containing_u0),
      InvalidArgumentError);
  std::vector<bool> wrong_size(g.n() + 1, true);
  EXPECT_THROW(algos::evaluate_window_ecc(g, tree, 5, 4, {}, &wrong_size),
               InvalidArgumentError);
}

TEST(Preconditions, DisconnectedGraphsRejected) {
  std::vector<graph::Edge> edges{{0, 1}, {2, 3}};
  auto g = graph::Graph::from_edges(4, edges);
  EXPECT_THROW(algos::classical_exact_diameter(g), InvalidArgumentError);
  EXPECT_THROW(algos::elect_leader(g), InvalidArgumentError);
  EXPECT_THROW(graph::diameter(g), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// HPRW preparation across topology families (abort path included).
// ---------------------------------------------------------------------------

TEST(HprwIntegration, WorksAcrossFamilies) {
  Rng rng(59);
  std::vector<Graph> gs;
  gs.push_back(graph::make_hypercube(6));
  gs.push_back(graph::make_torus(6, 6));
  gs.push_back(graph::make_random_regular(48, 4, rng));
  for (const auto& g : gs) {
    auto out = algos::classical_approx_diameter(g);
    ASSERT_FALSE(out.aborted);
    const auto truth = graph::diameter(g);
    EXPECT_LE(out.estimate, truth);
    EXPECT_GE(3 * out.estimate, 2 * truth) << g.describe();
  }
}

}  // namespace
}  // namespace qc
