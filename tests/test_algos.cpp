#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "algos/bfs_tree.hpp"
#include "algos/diameter_classical.hpp"
#include "algos/evaluation.hpp"
#include "algos/hprw.hpp"
#include "algos/leader_election.hpp"
#include "algos/source_detection.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace qc::algos {
namespace {

using graph::Graph;
using graph::NodeId;

Graph random_graph(std::uint32_t n, std::uint32_t d, std::uint64_t seed) {
  Rng rng(seed);
  return graph::make_random_with_diameter(n, d, rng);
}

/// hprw_preparation over the standard preliminaries it expects its caller
/// to have run: the elected leader and BFS(leader).
PreparationOutcome prepare(const Graph& g, std::uint32_t s,
                           congest::NetworkConfig cfg = {}) {
  const NodeId leader = elect_leader(g, cfg).leader;
  return hprw_preparation(g, s, leader,
                          compute_eccentricity(g, leader, cfg).tree, cfg);
}

TEST(LeaderElection, FindsMaxIdInDiameterRounds) {
  auto g = random_graph(50, 8, 1);
  auto out = elect_leader(g);
  EXPECT_EQ(out.leader, 49u);
  const auto d = graph::diameter(g);
  EXPECT_LE(out.stats.rounds, d + 3);
}

TEST(LeaderElection, WorksOnCompleteAndPath) {
  EXPECT_EQ(elect_leader(graph::make_complete(8)).leader, 7u);
  auto out = elect_leader(graph::make_path(20));
  EXPECT_EQ(out.leader, 19u);
  EXPECT_LE(out.stats.rounds, 22u);
}

TEST(BfsTreeDistributed, MatchesCentralized) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto g = random_graph(40, 6, seed);
    const NodeId root = static_cast<NodeId>(seed * 7 % g.n());
    auto dist_out = build_bfs_tree(g, root);
    auto ref = graph::bfs_tree(g, root);
    EXPECT_EQ(dist_out.tree.parent, ref.parent) << "seed " << seed;
    EXPECT_EQ(dist_out.tree.depth, ref.depth);
    EXPECT_EQ(dist_out.tree.children, ref.children);
    EXPECT_EQ(dist_out.tree.height, ref.height);
    EXPECT_LE(dist_out.stats.rounds, ref.height + 4);
  }
}

TEST(BfsTreeDistributed, RoundsScaleWithEcc) {
  auto g = graph::make_path(64);
  auto out = build_bfs_tree(g, 0);
  EXPECT_GE(out.stats.rounds, 63u);
  EXPECT_LE(out.stats.rounds, 66u);
}

TEST(Convergecast, MaxAndArgmax) {
  auto g = random_graph(30, 5, 3);
  auto tree = build_bfs_tree(g, 0).tree;
  std::vector<std::uint64_t> vals(g.n()), ids(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    vals[v] = (v * 37) % 101;
    ids[v] = v;
  }
  const std::uint32_t bits = qc::bit_width_for(101) + 1;
  auto out =
      aggregate_to_root(g, tree, AggregateOp::kMax, vals, ids, bits, bits);
  std::uint64_t best = 0, arg = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (vals[v] > best || (vals[v] == best && ids[v] > arg)) {
      best = vals[v];
      arg = ids[v];
    }
  }
  EXPECT_EQ(out.primary, best);
  EXPECT_EQ(out.secondary, arg);
  EXPECT_LE(out.stats.rounds, tree.height + 3);
}

TEST(Convergecast, Sum) {
  auto g = random_graph(25, 4, 4);
  auto tree = build_bfs_tree(g, 3).tree;
  std::vector<std::uint64_t> ones(g.n(), 1), zero(g.n(), 0);
  auto out =
      aggregate_to_root(g, tree, AggregateOp::kSum, ones, zero, 16, 1);
  EXPECT_EQ(out.primary, g.n());
}

TEST(Broadcast, ReachesEveryone) {
  auto g = random_graph(30, 6, 5);
  auto tree = build_bfs_tree(g, 2).tree;
  auto out = broadcast_from_root(g, tree, 12345, 20);
  EXPECT_EQ(out.status, PhaseStatus::kQuiesced);
  EXPECT_LE(out.stats.rounds, tree.height + 3);
}

TEST(EccentricityDistributed, MatchesCentralized) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto g = random_graph(35, 7, seed + 10);
    const NodeId root = static_cast<NodeId>(seed % g.n());
    auto out = compute_eccentricity(g, root);
    EXPECT_EQ(out.ecc, graph::eccentricity(g, root));
  }
}

// ---------------------------------------------------------------------------
// The Evaluation procedure (Figure 2).
// ---------------------------------------------------------------------------

/// Shared check: distributed Evaluation from u0 with `steps` token moves
/// must (a) visit exactly the window the centralized DFS numbering
/// predicts, with matching tau', and (b) return max ecc over that window.
void check_evaluation(const Graph& g, NodeId root, NodeId u0,
                      std::uint32_t steps) {
  auto tree_out = build_bfs_tree(g, root);
  const TreeState& tree = tree_out.tree;
  auto eval = evaluate_window_ecc(g, tree, u0, steps);

  auto num = graph::dfs_numbering(tree.to_bfs_tree());
  auto seg = graph::segment_window(num, u0, steps);
  EXPECT_EQ(eval.window, seg.members) << "u0=" << u0 << " steps=" << steps;
  EXPECT_EQ(eval.tau_prime, seg.tau_prime);

  // Figure 2's S is a superset of Definition 2's S(u0).
  const std::uint32_t mod = num.walk_length();
  for (NodeId v :
       graph::window_set(num, u0, std::min(steps, mod), mod)) {
    EXPECT_TRUE(std::binary_search(seg.members.begin(), seg.members.end(), v))
        << "Definition-2 member " << v << " missing from segment";
  }

  std::uint32_t expect_max = 0;
  for (NodeId v : seg.members) {
    expect_max = std::max(expect_max, graph::eccentricity(g, v));
  }
  EXPECT_EQ(eval.max_ecc, expect_max) << "u0=" << u0 << " steps=" << steps;
  EXPECT_EQ(eval.max_ecc, graph::max_ecc_in_segment(g, num, u0, steps));
}

TEST(Evaluation, SingleNodeWindow) {
  auto g = random_graph(20, 4, 6);
  check_evaluation(g, 0, 5, 0);  // S = {u0}: f = ecc(u0)
}

TEST(Evaluation, FullTourGivesDiameter) {
  auto g = random_graph(24, 5, 7);
  auto tree = build_bfs_tree(g, 0).tree;
  auto eval = evaluate_window_ecc(g, tree, 0, 2 * (g.n() - 1));
  EXPECT_EQ(eval.max_ecc, graph::diameter(g));
  EXPECT_EQ(eval.window.size(), g.n());
}

class EvaluationSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t,
                                                 std::uint32_t>> {};

TEST_P(EvaluationSweep, MatchesCentralizedReference) {
  const auto [n, d, steps] = GetParam();
  auto g = random_graph(n, d, n * 31 + d);
  const NodeId root = static_cast<NodeId>(n % 7);
  // Several starting points, including the root and far nodes.
  for (NodeId u0 : {root, static_cast<NodeId>(n - 1),
                    static_cast<NodeId>(n / 2), static_cast<NodeId>(1)}) {
    check_evaluation(g, root, u0, steps);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowsAndSizes, EvaluationSweep,
    ::testing::Values(std::tuple{16u, 4u, 4u}, std::tuple{16u, 4u, 8u},
                      std::tuple{24u, 6u, 12u}, std::tuple{30u, 5u, 10u},
                      std::tuple{30u, 5u, 58u},   // full tour
                      std::tuple{30u, 5u, 200u},  // wraps multiple times
                      std::tuple{40u, 10u, 20u}, std::tuple{48u, 8u, 16u}));

TEST(Evaluation, PaperWindowWidthTwiceEcc) {
  // The exact setting of Section 3.2: steps = 2d with d = ecc(leader).
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto g = random_graph(36, 8, seed + 50);
    auto ecc_out = compute_eccentricity(g, 0);
    check_evaluation(g, 0, static_cast<NodeId>((seed * 13) % g.n()),
                     2 * ecc_out.ecc);
  }
}

TEST(Evaluation, RoundsLinearInStepsPlusDiameter) {
  auto g = random_graph(60, 6, 8);
  auto tree = build_bfs_tree(g, 0).tree;
  const std::uint32_t d = tree.height;
  auto eval = evaluate_window_ecc(g, tree, 5, 2 * d);
  // Figure 2 budget: 3*(2d) token (probe/reply/move per step) + (6d+2)
  // pipeline + (d+1) convergecast.
  EXPECT_EQ(eval.stats.rounds,
            EvaluationProgram::token_phase_rounds(2 * d) +
                (2 * (2 * d) + 2 * d + 2) + d + 1);
}

TEST(Evaluation, NoBandwidthViolations) {
  // The whole point of the tau'-schedule (Lemmas 2-4): message pipelining
  // without congestion. BandwidthPolicy::kEnforce is on by default, so a
  // clean run is itself the assertion; double-check the stats anyway.
  auto g = random_graph(50, 10, 9);
  auto tree = build_bfs_tree(g, 0).tree;
  auto eval = evaluate_window_ecc(g, tree, 7, 2 * tree.height);
  EXPECT_EQ(eval.stats.violations, 0u);
  EXPECT_LE(eval.stats.max_edge_bits,
            congest_bandwidth_bits(g.n()));
}

TEST(Evaluation, MaskedSubtreeRestrictsWindow) {
  auto g = random_graph(30, 6, 11);
  auto tree = build_bfs_tree(g, 0).tree;
  // Keep a ball around the root: ancestor-closed by construction.
  std::vector<bool> keep(g.n());
  for (NodeId v = 0; v < g.n(); ++v) keep[v] = tree.depth[v] <= 2;
  keep[tree.root] = true;
  auto sub = graph::induced_subtree(tree.to_bfs_tree(), keep);
  auto eval =
      evaluate_window_ecc(g, tree, tree.root, 6,
                           congest::NetworkConfig{}, &keep);
  for (NodeId v : eval.window) EXPECT_TRUE(keep[v]);

  auto num = graph::dfs_numbering(sub);
  auto seg = graph::segment_window(num, tree.root, 6);
  EXPECT_EQ(eval.window, seg.members);
}

TEST(UnitaryEvaluation, RevertMirrorsForwardExactly) {
  auto g = random_graph(40, 8, 61);
  auto tree = build_bfs_tree(g, 0).tree;
  auto out = evaluate_window_ecc_unitary(g, tree, 3, 2 * tree.height);
  // The Step 5 revert costs exactly the forward budget and moves exactly
  // the same traffic (mirrored) — certified by a real simulator pass
  // under bandwidth enforcement.
  EXPECT_EQ(out.revert_stats.rounds, out.forward.stats.rounds);
  EXPECT_EQ(out.revert_stats.bits, out.forward.stats.bits);
  EXPECT_EQ(out.revert_stats.messages, out.forward.stats.messages);
  EXPECT_EQ(out.revert_stats.violations, 0u);
  EXPECT_EQ(out.total_rounds,
            2ULL * out.forward.stats.rounds);
  // And the forward pass still computes the right value.
  auto num = graph::dfs_numbering(tree.to_bfs_tree());
  EXPECT_EQ(out.forward.max_ecc,
            graph::max_ecc_in_segment(g, num, 3, 2 * tree.height));
}

TEST(UnitaryEvaluation, WorksWithMask) {
  auto g = random_graph(30, 6, 67);
  auto tree = build_bfs_tree(g, 0).tree;
  std::vector<bool> keep(g.n());
  for (NodeId v = 0; v < g.n(); ++v) keep[v] = tree.depth[v] <= 2;
  auto out =
      evaluate_window_ecc_unitary(g, tree, tree.root, 6, {}, &keep);
  EXPECT_EQ(out.total_rounds, 2ULL * out.forward.stats.rounds);
  for (NodeId v : out.forward.window) EXPECT_TRUE(keep[v]);
}

TEST(UnitaryEvaluation, MatchesOptimizerCharge) {
  // The optimizer charges 2 * t_eval_forward for the Evaluation unitary;
  // the executable Step 5 replay validates that constant.
  auto g = random_graph(36, 7, 71);
  auto tree = build_bfs_tree(g, 0).tree;
  const std::uint32_t steps = 2 * tree.height;
  auto out = evaluate_window_ecc_unitary(g, tree, 1, steps);
  const std::uint32_t t_eval_forward =
      EvaluationProgram::token_phase_rounds(steps) +
      (2 * steps + 2 * tree.height + 2) + tree.height + 1;
  EXPECT_EQ(out.total_rounds, 2ULL * t_eval_forward);
}

// ---------------------------------------------------------------------------
// Classical exact diameter (Table 1 row 1).
// ---------------------------------------------------------------------------

class ClassicalDiameterSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(ClassicalDiameterSweep, ExactOnRandomGraphs) {
  const auto [n, d] = GetParam();
  auto g = random_graph(n, d, n + 1000 * d);
  auto out = classical_exact_diameter(g);
  EXPECT_EQ(out.diameter, d);
  EXPECT_EQ(out.leader, n - 1);
  // O(n + D) with the Figure 2 constants (3-round token steps over the
  // 2(n-1)-move tour plus the ~4n pipeline): rounds <= ~11n.
  EXPECT_LE(out.stats.rounds, 12 * n + 30);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ClassicalDiameterSweep,
    ::testing::Values(std::pair{12u, 3u}, std::pair{20u, 5u},
                      std::pair{32u, 8u}, std::pair{48u, 6u},
                      std::pair{64u, 16u}, std::pair{80u, 4u}));

TEST(ClassicalDiameter, StandardFamilies) {
  EXPECT_EQ(classical_exact_diameter(graph::make_path(20)).diameter, 19u);
  EXPECT_EQ(classical_exact_diameter(graph::make_cycle(15)).diameter, 7u);
  EXPECT_EQ(classical_exact_diameter(graph::make_star(12)).diameter, 2u);
  EXPECT_EQ(classical_exact_diameter(graph::make_complete(9)).diameter, 1u);
  EXPECT_EQ(classical_exact_diameter(graph::make_grid(4, 6)).diameter, 8u);
}

TEST(ClassicalDiameter, SingleAndTwoNodes) {
  EXPECT_EQ(classical_exact_diameter(graph::make_path(1)).diameter, 0u);
  EXPECT_EQ(classical_exact_diameter(graph::make_path(2)).diameter, 1u);
}

// ---------------------------------------------------------------------------
// Source detection ([LP13]) and the HPRW preparation.
// ---------------------------------------------------------------------------

TEST(SourceDetection, ExactDistancesToAllSources) {
  auto g = random_graph(40, 8, 13);
  std::vector<bool> is_source(g.n(), false);
  for (NodeId v : {0u, 7u, 13u, 25u, 39u}) is_source[v] = true;
  auto out = detect_sources(g, is_source);
  for (NodeId v = 0; v < g.n(); ++v) {
    for (const auto& [src, dist] : out.distances[v]) {
      EXPECT_EQ(dist, graph::bfs(g, src).dist[v])
          << "v=" << v << " src=" << src;
    }
    EXPECT_EQ(out.distances[v].size(), 5u);
  }
}

TEST(SourceDetection, RoundsLinearInSourcesPlusDiameter) {
  auto g = graph::make_path(50);
  std::vector<bool> is_source(g.n(), false);
  for (NodeId v = 0; v < 10; ++v) is_source[v * 5] = true;
  auto out = detect_sources(g, is_source);
  // |S| + D plus small constants; the cap in the driver is 4(n+|S|).
  EXPECT_LE(out.stats.rounds, 10u + 49u + 10u);
}

TEST(SourceDetection, SingleSourceIsJustBfs) {
  auto g = random_graph(25, 5, 14);
  std::vector<bool> is_source(g.n(), false);
  is_source[6] = true;
  auto out = detect_sources(g, is_source);
  auto ref = graph::bfs(g, 6);
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_EQ(out.distances[v].at(6), ref.dist[v]);
  }
}

TEST(BatchedEcc, MatchesCentralized) {
  auto g = random_graph(30, 6, 15);
  std::vector<bool> is_source(g.n(), false);
  for (NodeId v : {2u, 9u, 17u, 28u}) is_source[v] = true;
  auto det = detect_sources(g, is_source);
  auto tree = build_bfs_tree(g, 0).tree;
  auto out = batched_eccentricities(g, tree, det.distances);
  ASSERT_EQ(out.ecc.size(), 4u);
  for (const auto& [src, e] : out.ecc) {
    EXPECT_EQ(e, graph::eccentricity(g, src)) << "src=" << src;
  }
}

TEST(HprwPreparation, ProducesValidR) {
  auto g = random_graph(60, 10, 16);
  const std::uint32_t s = 8;
  auto prep = prepare(g, s);
  ASSERT_FALSE(prep.aborted);
  EXPECT_EQ(prep.r_size, s);
  // R is exactly the s closest nodes to w by (distance, id).
  std::vector<std::pair<std::uint32_t, NodeId>> order;
  auto dw = graph::bfs(g, prep.w).dist;
  for (NodeId v = 0; v < g.n(); ++v) order.push_back({dw[v], v});
  std::sort(order.begin(), order.end());
  for (std::uint32_t i = 0; i < g.n(); ++i) {
    EXPECT_EQ(prep.r_mask[order[i].second], i < s)
        << "rank " << i << " node " << order[i].second;
  }
  // R is ancestor-closed in BFS(w) (needed by the quantum phase).
  for (NodeId v = 0; v < g.n(); ++v) {
    if (prep.r_mask[v] && v != prep.w) {
      EXPECT_TRUE(prep.r_mask[prep.tree_w.parent[v]]);
    }
  }
  EXPECT_EQ(prep.ecc_w, graph::eccentricity(g, prep.w));
}

TEST(HprwPreparation, WMaximizesDistanceToSample) {
  auto g = random_graph(50, 8, 17);
  auto prep = prepare(g, 6);
  ASSERT_FALSE(prep.aborted);
  ASSERT_FALSE(prep.sample.empty());
  auto dist_to_sample = [&](NodeId v) {
    std::uint32_t best = graph::kUnreachable;
    for (NodeId s : prep.sample) {
      best = std::min(best, graph::bfs(g, s).dist[v]);
    }
    return best;
  };
  const std::uint32_t dw = dist_to_sample(prep.w);
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_LE(dist_to_sample(v), dw);
  }
}

class ClassicalApproxSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(ClassicalApproxSweep, EstimateWithinGuarantee) {
  const auto [n, d] = GetParam();
  auto g = random_graph(n, d, 3 * n + d);
  auto out = classical_approx_diameter(g);
  ASSERT_FALSE(out.aborted);
  const std::uint32_t diam = graph::diameter(g);
  EXPECT_LE(out.estimate, diam);
  EXPECT_GE(3 * out.estimate, 2 * diam)  // estimate >= 2D/3
      << "n=" << n << " d=" << d << " est=" << out.estimate;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ClassicalApproxSweep,
    ::testing::Values(std::pair{30u, 6u}, std::pair{50u, 10u},
                      std::pair{64u, 5u}, std::pair{80u, 12u},
                      std::pair{100u, 8u}));

TEST(ClassicalApprox, ExplicitSmallS) {
  auto g = random_graph(60, 9, 19);
  auto out = classical_approx_diameter(g, 4);
  ASSERT_FALSE(out.aborted);
  EXPECT_EQ(out.s_used, 4u);
  const std::uint32_t diam = graph::diameter(g);
  EXPECT_LE(out.estimate, diam);
  EXPECT_GE(3 * out.estimate, 2 * diam);
}

}  // namespace
}  // namespace qc::algos
