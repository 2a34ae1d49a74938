// Deeper distributed-algorithm behaviors: aggregation primitives across
// shapes, source-detection edge cases, HPRW preparation internals, and
// per-program memory discipline measured live.

#include <gtest/gtest.h>

#include <algorithm>

#include "algos/apsp_census.hpp"
#include "algos/bfs_tree.hpp"
#include "algos/diameter_classical.hpp"
#include "algos/evaluation.hpp"
#include "algos/hprw.hpp"
#include "algos/leader_election.hpp"
#include "algos/source_detection.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/bits.hpp"
#include "util/stats.hpp"
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

// ---------------------------------------------------------------------------
// Aggregation primitives across tree shapes.
// ---------------------------------------------------------------------------

class AggregationShapes : public ::testing::TestWithParam<int> {
 protected:
  Graph make() const {
    switch (GetParam()) {
      case 0: return graph::make_path(25);          // deep chain
      case 1: return graph::make_star(25);          // flat star
      case 2: return graph::make_balanced_tree(31, 2);
      case 3: return graph::make_complete(12);      // height-1 tree
      default: return random_graph(30, 6, 500 + GetParam());
    }
  }
};

TEST_P(AggregationShapes, MinMaxSumAllCorrect) {
  auto g = make();
  auto tree = build_bfs_tree(g, 0).tree;
  std::vector<std::uint64_t> vals(g.n()), ids(g.n()), zero(g.n(), 0);
  std::uint64_t expect_min = ~0ULL, expect_max = 0, expect_sum = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    vals[v] = (v * 997 + 13) % 32;
    ids[v] = v;
    expect_min = std::min(expect_min, vals[v]);
    expect_max = std::max(expect_max, vals[v]);
    expect_sum += vals[v];
  }
  // Stay within the O(log n) bandwidth: 10-bit sums + 6-bit ids <= 16.
  const std::uint32_t bits = 10;
  EXPECT_EQ(aggregate_to_root(g, tree, AggregateOp::kMax, vals, ids, bits, 6)
                .primary,
            expect_max);
  EXPECT_EQ(aggregate_to_root(g, tree, AggregateOp::kMin, vals, ids, bits, 6)
                .primary,
            expect_min);
  EXPECT_EQ(aggregate_to_root(g, tree, AggregateOp::kSum, vals, zero, bits,
                              1)
                .primary,
            expect_sum);
}

TEST_P(AggregationShapes, ArgminPicksSmallestIdOnTies) {
  auto g = make();
  auto tree = build_bfs_tree(g, 0).tree;
  std::vector<std::uint64_t> vals(g.n(), 7), ids(g.n());
  for (NodeId v = 0; v < g.n(); ++v) ids[v] = v;
  auto out = aggregate_to_root(g, tree, AggregateOp::kMin, vals, ids, 8, 8);
  EXPECT_EQ(out.primary, 7u);
  EXPECT_EQ(out.secondary, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, AggregationShapes,
                         ::testing::Range(0, 7));

TEST(Broadcast, ValueSurvivesDeepTrees) {
  auto g = graph::make_path(80);
  auto tree = build_bfs_tree(g, 0).tree;
  auto out = broadcast_from_root(g, tree, 0xABCDE, 20);
  EXPECT_EQ(out.status, PhaseStatus::kQuiesced);
  EXPECT_GE(out.stats.rounds, 79u);
  EXPECT_LE(out.stats.rounds, 82u);
}

TEST(Broadcast, NonTreeNeighborsIgnoreCopies) {
  // On a complete graph the flood sends n-1 messages per node but each
  // node accepts only its parent's copy; the broadcast must still be
  // exactly one level deep.
  auto g = graph::make_complete(10);
  auto tree = build_bfs_tree(g, 3).tree;
  auto out = broadcast_from_root(g, tree, 5, 8);
  EXPECT_LE(out.stats.rounds, 3u);
}

// ---------------------------------------------------------------------------
// Source detection edge cases.
// ---------------------------------------------------------------------------

TEST(SourceDetection, AllNodesAsSources) {
  auto g = random_graph(25, 5, 601);
  std::vector<bool> everyone(g.n(), true);
  auto out = detect_sources(g, everyone);
  auto dist = graph::apsp(g);
  for (NodeId v = 0; v < g.n(); ++v) {
    for (NodeId s = 0; s < g.n(); ++s) {
      EXPECT_EQ(out.distances[v].at(s), dist[s][v]);
    }
  }
}

TEST(SourceDetection, FirstHopsAreValidShortestPathBranches) {
  auto g = random_graph(30, 6, 602);
  std::vector<bool> everyone(g.n(), true);
  auto out = detect_sources(g, everyone);
  auto dist = graph::apsp(g);
  for (NodeId v = 0; v < g.n(); ++v) {
    for (NodeId s = 0; s < g.n(); ++s) {
      const NodeId h = out.first_hops[v].at(s);
      if (v == s) {
        EXPECT_EQ(h, s);
        continue;
      }
      // h must be a depth-1 vertex of *some* shortest s->v path: adjacent
      // to s, and d(h, v) = d(s, v) - 1.
      EXPECT_TRUE(g.has_edge(s, h)) << "s=" << s << " v=" << v;
      EXPECT_EQ(dist[h][v] + 1, dist[s][v]) << "s=" << s << " v=" << v;
    }
  }
}

TEST(SourceDetection, StarTopologyWorstCaseFanIn) {
  auto g = graph::make_star(40);
  std::vector<bool> sources(g.n(), false);
  for (NodeId v = 1; v <= 20; ++v) sources[v] = true;  // 20 leaf sources
  auto out = detect_sources(g, sources);
  // The center must learn all 20 sources through 39 independent edges,
  // but each *leaf* learns them serialized through its single edge:
  // O(|S| + D) rounds.
  EXPECT_LE(out.stats.rounds, 20u + 2 + 24);
  for (NodeId v = 0; v < g.n(); ++v) {
    EXPECT_EQ(out.distances[v].size(), 20u);
  }
}

TEST(SourceDetection, MessagesRespectBandwidth) {
  auto g = random_graph(64, 8, 603);
  std::vector<bool> sources(g.n(), false);
  sources[0] = sources[17] = sources[42] = true;
  auto out = detect_sources(g, sources);  // kEnforce would throw otherwise
  EXPECT_EQ(out.stats.violations, 0u);
  EXPECT_LE(out.stats.max_edge_bits, congest_bandwidth_bits(g.n()));
}

// ---------------------------------------------------------------------------
// HPRW preparation internals.
// ---------------------------------------------------------------------------

TEST(HprwPrep, SampleEccentricitiesAreExact) {
  auto g = random_graph(50, 9, 604);
  auto prep = prepare(g, 5);
  ASSERT_FALSE(prep.aborted);
  std::uint32_t expect = 0;
  for (NodeId s : prep.sample) {
    expect = std::max(expect, graph::eccentricity(g, s));
  }
  EXPECT_EQ(prep.max_ecc_sample, expect);
}

TEST(HprwPrep, LargerSMeansSmallerSample) {
  auto g = random_graph(80, 8, 605);
  congest::NetworkConfig cfg;
  auto small_s = prepare(g, 2, cfg);
  auto large_s = prepare(g, 40, cfg);
  ASSERT_FALSE(small_s.aborted);
  ASSERT_FALSE(large_s.aborted);
  EXPECT_GT(small_s.sample.size(), large_s.sample.size());
}

TEST(HprwPrep, RIsExactlySizeS) {
  auto g = random_graph(60, 7, 606);
  for (std::uint32_t s : {1u, 3u, 10u, 60u, 100u}) {
    auto prep = prepare(g, s);
    ASSERT_FALSE(prep.aborted);
    EXPECT_EQ(prep.r_size, std::min(s, g.n())) << "s=" << s;
  }
}

// ---------------------------------------------------------------------------
// Memory discipline, measured live.
// ---------------------------------------------------------------------------

TEST(MemoryDiscipline, Figure12ProgramsStayLogarithmic) {
  // The max memory_bits across all nodes of the O(log n)-state programs
  // must not grow with n beyond a log factor.
  std::vector<double> ns, mems;
  for (std::uint32_t n : {32u, 128u, 512u}) {
    auto g = random_graph(n, 8, 607 + n);
    auto tree_out = build_bfs_tree(g, 0);
    auto eval = evaluate_window_ecc(g, tree_out.tree, 1,
                                    2 * tree_out.tree.height);
    ns.push_back(n);
    mems.push_back(static_cast<double>(
        std::max(tree_out.stats.max_node_memory_bits,
                 eval.stats.max_node_memory_bits)));
  }
  const auto fit = fit_power_law(ns, mems);
  EXPECT_LT(fit.slope, 0.3) << "per-node memory grows polynomially!";
}

TEST(MemoryDiscipline, SourceDetectionIsDeliberatelyPolynomial) {
  std::vector<double> ns, mems;
  for (std::uint32_t n : {24u, 48u, 96u}) {
    auto g = random_graph(n, 6, 608 + n);
    std::vector<bool> everyone(g.n(), true);
    auto out = detect_sources(g, everyone);
    ns.push_back(n);
    mems.push_back(static_cast<double>(out.stats.max_node_memory_bits));
  }
  const auto fit = fit_power_law(ns, mems);
  EXPECT_GT(fit.slope, 0.7) << "the census memory should scale ~n";
}

// ---------------------------------------------------------------------------
// Cross-checks among the baselines.
// ---------------------------------------------------------------------------

TEST(BaselineConsistency, DiameterFromThreeRoutes) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    auto g = random_graph(36, 8, 609 + seed);
    const auto a = classical_exact_diameter(g).diameter;
    const auto b = classical_apsp_census(g).diameter;
    const auto c = graph::diameter(g);
    EXPECT_EQ(a, c);
    EXPECT_EQ(b, c);
  }
}

TEST(BaselineConsistency, CensusEccVsEvaluationFullTour) {
  auto g = random_graph(30, 6, 612);
  auto census = classical_apsp_census(g);
  auto tree = build_bfs_tree(g, 0).tree;
  auto eval = evaluate_window_ecc(g, tree, 0, 2 * (g.n() - 1));
  const auto max_ecc =
      *std::max_element(census.eccentricity.begin(),
                        census.eccentricity.end());
  EXPECT_EQ(eval.max_ecc, max_ecc);
}

TEST(LeaderElection, RoundsTrackDiameterNotSize) {
  // Same n, very different D: flood-max cost follows D.
  auto deep = graph::make_path(120);
  auto flat = graph::make_star(120);
  const auto deep_rounds = elect_leader(deep).stats.rounds;
  const auto flat_rounds = elect_leader(flat).stats.rounds;
  EXPECT_GT(deep_rounds, 100u);
  EXPECT_LT(flat_rounds, 8u);
}

}  // namespace
}  // namespace qc::algos
