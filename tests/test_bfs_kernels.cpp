// The bit-parallel multi-source BFS kernel layer (graph/bfs_kernels.hpp)
// and its integration into EccEngine:
//
//  - parity of the multi-source kernel (push-only AND direction-
//    optimizing) against the flat single-source kernel and against a
//    bfs()-derived reference, over connected families, two-component
//    unions, isolated vertices, and fully random (possibly disconnected)
//    graphs — the differential harness of the disconnected-graph bugfix;
//  - EccEngine bit-identity across kernel choices and thread counts,
//    bfs_runs() accounting, and SegmentMax bit-identity on the
//    bit-parallel table;
//  - the lifetime fixes: an engine outliving its source Graph object and
//    a SegmentMax outliving its engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/bfs_kernels.hpp"
#include "graph/ecc_engine.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qc::graph {
namespace {

// Ground truth straight from bfs(): ecc(v) is the max distance when v
// reaches everything, kUnreachable otherwise.
std::vector<std::uint32_t> reference_eccentricities(const Graph& g) {
  std::vector<std::uint32_t> out(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    const BfsResult r = bfs(g, v);
    std::uint32_t ecc = 0;
    bool connected = true;
    for (const std::uint32_t dv : r.dist) {
      if (dv == kUnreachable) {
        connected = false;
        break;
      }
      ecc = std::max(ecc, dv);
    }
    out[v] = connected ? ecc : kUnreachable;
  }
  return out;
}

// G1 ⊎ G2 with G2's ids shifted — the canonical two-component graph.
Graph disjoint_union(const Graph& a, const Graph& b) {
  std::vector<Edge> edges = a.edges();
  for (const auto& [u, v] : b.edges()) {
    edges.emplace_back(u + a.n(), v + a.n());
  }
  return Graph::from_edges(a.n() + b.n(), std::move(edges));
}

// `extra` isolated vertices appended after g's.
Graph with_isolated(const Graph& g, std::uint32_t extra) {
  return Graph::from_edges(g.n() + extra, g.edges());
}

// Runs the multi-source kernel over all of g's vertices in `batch`-sized
// slices and returns the assembled eccentricity table.
std::vector<std::uint32_t> sweep_multi(const Graph& g, std::uint32_t batch,
                                       MultiBfsDirection dir) {
  std::vector<std::uint32_t> out(g.n());
  std::vector<NodeId> ids(g.n());
  for (NodeId v = 0; v < g.n(); ++v) ids[v] = v;
  MultiBfsScratch scratch;
  for (std::uint32_t first = 0; first < g.n(); first += batch) {
    const std::uint32_t k = std::min(batch, g.n() - first);
    multi_source_eccentricities(
        g, std::span<const NodeId>(ids.data() + first, k),
        out.data() + first, scratch, dir);
  }
  return out;
}

std::vector<Graph> connected_families() {
  std::vector<Graph> gs;
  gs.push_back(make_path(1));
  gs.push_back(make_path(2));
  gs.push_back(make_path(17));
  gs.push_back(make_path(65));  // > one word of sources, high diameter
  gs.push_back(make_path(130));  // > one 128-source batch: three words
  gs.push_back(make_star(9));
  gs.push_back(make_cycle(12));
  gs.push_back(make_grid(7, 9));
  gs.push_back(make_balanced_tree(40, 3));
  Rng rng(42);
  gs.push_back(make_connected_er(150, 0.04, rng));
  gs.push_back(make_random_with_diameter(130, 9, rng));
  gs.push_back(make_preferential_attachment(200, 3, rng));
  return gs;
}

std::vector<Graph> disconnected_families() {
  std::vector<Graph> gs;
  Rng rng(7);
  gs.push_back(disjoint_union(make_path(5), make_path(3)));
  gs.push_back(disjoint_union(make_star(8), make_cycle(5)));
  gs.push_back(disjoint_union(make_random_with_diameter(70, 6, rng),
                              make_grid(4, 4)));
  gs.push_back(with_isolated(make_path(6), 1));
  gs.push_back(with_isolated(make_preferential_attachment(90, 2, rng), 5));
  gs.push_back(Graph::from_edges(4, std::vector<Edge>{}));  // all isolated
  gs.push_back(disjoint_union(with_isolated(make_cycle(65), 2),
                              make_path(66)));  // spans several words
  gs.push_back(disjoint_union(with_isolated(make_cycle(129), 2),
                              make_path(130)));  // spans several batches
  return gs;
}

// Batch sizes at and around the word and batch boundaries.
constexpr std::uint32_t kBatchSizes[] = {1, 64, 65, 127, 128};

TEST(MultiSourceBfs, ParityOnConnectedFamilies) {
  for (const Graph& g : connected_families()) {
    const auto ref = reference_eccentricities(g);
    for (const auto dir :
         {MultiBfsDirection::kPushOnly, MultiBfsDirection::kOptimized}) {
      for (const std::uint32_t batch : kBatchSizes) {
        EXPECT_EQ(sweep_multi(g, batch, dir), ref)
            << g.describe() << " batch=" << batch;
      }
    }
    // Flat kernel agrees with the same reference (connected: finite).
    BfsScratch scratch;
    for (NodeId v = 0; v < g.n(); ++v) {
      EXPECT_EQ(flat_bfs_distances(g, v, scratch), ref[v]);
      EXPECT_EQ(scratch.reached, g.n());
      EXPECT_EQ(scratch.finite_ecc, ref[v]);
    }
  }
}

TEST(MultiSourceBfs, ParityOnDisconnectedFamilies) {
  for (const Graph& g : disconnected_families()) {
    const auto ref = reference_eccentricities(g);
    // Every vertex of a multi-component graph misses something.
    for (const std::uint32_t e : ref) EXPECT_EQ(e, kUnreachable);
    for (const auto dir :
         {MultiBfsDirection::kPushOnly, MultiBfsDirection::kOptimized}) {
      for (const std::uint32_t batch : kBatchSizes) {
        EXPECT_EQ(sweep_multi(g, batch, dir), ref)
            << g.describe() << " batch=" << batch;
      }
    }
    BfsScratch scratch;
    for (NodeId v = 0; v < g.n(); ++v) {
      EXPECT_EQ(flat_bfs_distances(g, v, scratch), kUnreachable);
      EXPECT_LT(scratch.reached, g.n());
    }
  }
}

TEST(MultiSourceBfs, RandomizedDifferentialVsBfsReference) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n =
        static_cast<std::uint32_t>(rng.next_in(1, trial < 20 ? 24 : 120));
    const auto m = static_cast<std::uint32_t>(rng.next_in(0, 2 * n));
    std::vector<Edge> edges;
    for (std::uint32_t i = 0; i < m; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      const auto v = static_cast<NodeId>(rng.next_below(n));
      if (u != v) edges.emplace_back(std::min(u, v), std::max(u, v));
    }
    const Graph g = Graph::from_edges(n, std::move(edges));
    const auto ref = reference_eccentricities(g);
    // Random batch slicing exercises partial words and batch boundaries.
    const auto batch = static_cast<std::uint32_t>(rng.next_in(1, 128));
    for (const auto dir :
         {MultiBfsDirection::kPushOnly, MultiBfsDirection::kOptimized}) {
      ASSERT_EQ(sweep_multi(g, batch, dir), ref)
          << "trial " << trial << " n=" << n << " batch=" << batch;
    }
  }
}

TEST(MultiSourceBfs, DuplicateAndUnorderedSources) {
  Rng rng(3);
  const Graph g = make_random_with_diameter(80, 7, rng);
  const auto ref = reference_eccentricities(g);
  const std::vector<NodeId> srcs = {5, 5, 0, 79, 13, 5, 79};
  std::vector<std::uint32_t> out(srcs.size());
  MultiBfsScratch scratch;
  multi_source_eccentricities(g, srcs, out.data(), scratch);
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    EXPECT_EQ(out[i], ref[srcs[i]]);
  }
}

TEST(MultiSourceBfs, SingleSourceBatchMatchesFlat) {
  const Graph g = make_grid(5, 6);
  BfsScratch flat;
  MultiBfsScratch multi;
  for (NodeId v = 0; v < g.n(); ++v) {
    std::uint32_t out = 0;
    const NodeId src[1] = {v};
    multi_source_eccentricities(g, src, &out, multi);
    EXPECT_EQ(out, flat_bfs_distances(g, v, flat));
  }
}

TEST(MultiSourceBfs, DirectionStatsAccount) {
  // Low-diameter star: the optimized run must actually pull; the
  // push-only run must not. Level counts agree either way.
  const Graph g = make_star(200);
  std::vector<NodeId> srcs(128);
  for (NodeId i = 0; i < 128; ++i) srcs[i] = i;
  std::uint32_t out[128];
  MultiBfsScratch scratch;
  const auto opt = multi_source_eccentricities(
      g, srcs, out, scratch, MultiBfsDirection::kOptimized);
  EXPECT_GT(opt.pull_levels, 0u);
  EXPECT_EQ(opt.levels, opt.push_levels + opt.pull_levels);
  const auto push = multi_source_eccentricities(
      g, srcs, out, scratch, MultiBfsDirection::kPushOnly);
  EXPECT_EQ(push.pull_levels, 0u);
  EXPECT_EQ(push.levels, opt.levels);
}

TEST(MultiSourceBfs, RejectsBadBatches) {
  const Graph g = make_path(4);
  MultiBfsScratch scratch;
  std::uint32_t out[129];
  EXPECT_THROW(multi_source_eccentricities(g, {}, out, scratch), Error);
  std::vector<NodeId> too_many(129, 0);
  EXPECT_THROW(multi_source_eccentricities(g, too_many, out, scratch),
               Error);
  const NodeId oob[1] = {4};
  EXPECT_THROW(multi_source_eccentricities(g, oob, out, scratch), Error);
}

TEST(EccEngineKernels, BitIdenticalAcrossKernelsAndThreads) {
  Rng rng(11);
  std::vector<Graph> gs;
  gs.push_back(make_random_with_diameter(300, 12, rng));  // > cutoff
  gs.push_back(make_preferential_attachment(400, 3, rng));
  gs.push_back(disjoint_union(make_path(200), make_cycle(150)));
  // The sweep batches sources in BFS order from the max-degree vertex and
  // continues from the smallest unvisited id. Here two components
  // interleave by id (even ids: a cycle; odd ids: a star whose hub has the
  // last id, and the highest degree), so the order must jump back to low
  // ids to cover the second one. The bridge 0–1 joins them.
  const NodeId hub = 401;
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 2 < hub; v += 2) edges.emplace_back(v, v + 2);
  edges.emplace_back(0, hub - 1);  // closes the cycle 0, 2, ..., 400
  for (NodeId v = 1; v < hub; v += 2) edges.emplace_back(v, hub);
  gs.push_back(Graph::from_edges(hub + 1, edges));
  edges.emplace_back(0, 1);
  gs.push_back(Graph::from_edges(hub + 1, std::move(edges)));
  for (const Graph& g : gs) {
    const EccEngine flat1(g, {1, EccKernel::kFlat});
    const EccEngine bp1(g, {1, EccKernel::kBitParallel});
    const EccEngine bp4(g, {4, EccKernel::kBitParallel});
    const EccEngine flat4(g, {4, EccKernel::kFlat});
    const auto& table = flat1.all();
    EXPECT_EQ(bp1.all(), table);
    EXPECT_EQ(bp4.all(), table);
    EXPECT_EQ(flat4.all(), table);
    // One BFS per vertex regardless of kernel, batching, or threads.
    EXPECT_EQ(flat1.bfs_runs(), g.n());
    EXPECT_EQ(bp1.bfs_runs(), g.n());
    EXPECT_EQ(bp4.bfs_runs(), g.n());
    EXPECT_EQ(table, reference_eccentricities(g));
  }
}

TEST(EccEngineKernels, DisconnectedEngineReportsUnreachable) {
  for (const Graph& g : disconnected_families()) {
    for (const auto kernel : {EccKernel::kFlat, EccKernel::kBitParallel}) {
      const EccEngine engine(g, {1, kernel});
      EXPECT_EQ(engine.diameter(), kUnreachable) << g.describe();
      EXPECT_EQ(engine.radius(), kUnreachable) << g.describe();
      for (NodeId v = 0; v < g.n(); ++v) {
        EXPECT_EQ(engine.eccentricity(v), kUnreachable);
      }
    }
  }
}

TEST(EccEngineKernels, ConnectedEngineStaysFinite) {
  for (const Graph& g : connected_families()) {
    const EccEngine engine(g);
    EXPECT_EQ(engine.all(), reference_eccentricities(g)) << g.describe();
    EXPECT_NE(engine.diameter(), kUnreachable);
  }
}

TEST(EccEngineKernels, SegmentMaxBitIdenticalOnKernelTables) {
  Rng rng(17);
  const Graph g = make_random_with_diameter(300, 14, rng);
  const BfsTree tree = bfs_tree(g, 0);
  const DfsNumbering num = dfs_numbering(tree);
  const EccEngine flat(g, {1, EccKernel::kFlat});
  const EccEngine bp(g, {2, EccKernel::kBitParallel});
  const auto seg_flat = flat.segment_max(num);
  const auto seg_bp = bp.segment_max(num);
  const std::uint32_t len = num.walk_length();
  for (NodeId u = 0; u < g.n(); u += 7) {
    for (const std::uint32_t steps : {0u, 3u, len / 2, len, 2 * len}) {
      EXPECT_EQ(seg_bp.max_ecc_in_segment(u, steps),
                seg_flat.max_ecc_in_segment(u, steps))
          << "u=" << u << " steps=" << steps;
    }
  }
}

TEST(EccEngineLifetime, EngineOutlivesSourceGraph) {
  // The engine copies the Graph (O(1), shared storage), so the caller's
  // object can die first.
  std::unique_ptr<EccEngine> engine;
  std::uint32_t expected = 0;
  {
    const Graph grid = make_grid(6, 7);
    const Graph g = Graph::from_edges(grid.n(), grid.edges());
    expected = diameter(g);
    engine = std::make_unique<EccEngine>(g, 1);
    // `grid` and `g` both go out of scope before the first query.
  }
  EXPECT_EQ(engine->diameter(), expected);
  EXPECT_EQ(engine->graph().n(), 42u);
}

TEST(EccEngineLifetime, SegmentMaxOutlivesEngine) {
  Rng rng(29);
  const Graph g = make_random_with_diameter(90, 8, rng);
  const BfsTree tree = bfs_tree(g, 0);
  const DfsNumbering num = dfs_numbering(tree);
  EccEngine::SegmentMax seg;
  {
    const EccEngine engine(g, 1);
    seg = engine.segment_max(num);
  }  // engine (and its table's unique handle) destroyed here
  for (NodeId u = 0; u < g.n(); u += 5) {
    EXPECT_EQ(seg.max_ecc_in_segment(u, 2 * tree.height),
              max_ecc_in_segment(g, num, u, 2 * tree.height));
  }
}

}  // namespace
}  // namespace qc::graph
