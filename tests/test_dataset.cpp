// Reference-output tests over the checked-in datasets under data/: every
// value below was computed once from the committed files and is pinned, so
// any regression in the edge-list parser, the .qcg codec, the CSR refactor,
// or the BFS kernels — or any silent modification of the data files
// themselves — shows up as an exact-value mismatch. QC_DATA_DIR is injected by CMake and
// points at the source-tree data/ directory.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/bfs_kernels.hpp"
#include "graph/ecc_engine.hpp"
#include "graph/io.hpp"
#include "graph/qcg.hpp"
#include "util/error.hpp"

#ifndef QC_DATA_DIR
#error "QC_DATA_DIR must point at the repository's data/ directory"
#endif

namespace qc::graph {
namespace {

std::string data_path(const char* file) {
  return std::string(QC_DATA_DIR) + "/" + file;
}

// One BFS worth of pinned topology evidence per dataset: eccentricity of
// vertex 0, the sum of all distances from it, and the double-sweep lower
// bound (BFS from the farthest vertex found). Cheap enough for sanitizer
// jobs, sensitive enough that any adjacency change flips at least one.
struct DatasetCase {
  const char* file;
  const char* format;  // what load_graph_file must auto-detect
  std::uint32_t n;
  std::uint32_t m;
  std::uint32_t ecc0;
  std::uint64_t dist_sum0;
  std::uint32_t dsweep_lb;
};

class DatasetReference : public ::testing::TestWithParam<DatasetCase> {};

TEST_P(DatasetReference, MatchesPinnedValues) {
  const auto& c = GetParam();
  std::string format;
  const auto g = load_graph_file(data_path(c.file), &format);
  EXPECT_EQ(format, c.format);
  EXPECT_EQ(g.n(), c.n);
  EXPECT_EQ(g.m(), c.m);
  EXPECT_TRUE(g.is_connected());

  const auto b = bfs(g, 0);
  EXPECT_EQ(b.ecc, c.ecc0);
  std::uint64_t sum = 0;
  for (const auto d : b.dist) sum += d;
  EXPECT_EQ(sum, c.dist_sum0);

  NodeId far = 0;
  for (NodeId v = 0; v < g.n(); ++v)
    if (b.dist[v] > b.dist[far]) far = v;
  EXPECT_EQ(bfs(g, far).ecc, c.dsweep_lb);
}

INSTANTIATE_TEST_SUITE_P(
    CheckedInFiles, DatasetReference,
    ::testing::Values(
        DatasetCase{"synth-p2p-10k.txt", "edge-list", 10876, 32575, 5, 34899,
                    6},
        DatasetCase{"synth-p2p-10k.qcg", "qcg", 10876, 32575, 5, 34899, 6},
        DatasetCase{"synth-p2p-100k.qcg", "qcg", 100000, 299927, 5, 357378,
                    7}));

TEST(Dataset, TextAndQcgCopiesAreIdentical) {
  const auto txt = load_graph_file(data_path("synth-p2p-10k.txt"));
  const auto qcg = read_qcg_file(data_path("synth-p2p-10k.qcg"));
  ASSERT_EQ(txt.n(), qcg.n());
  ASSERT_EQ(txt.m(), qcg.m());
  const auto to = txt.csr_offsets(), qo = qcg.csr_offsets();
  const auto tn = txt.csr_neighbors(), qn = qcg.csr_neighbors();
  EXPECT_TRUE(std::equal(to.begin(), to.end(), qo.begin()));
  EXPECT_TRUE(std::equal(tn.begin(), tn.end(), qn.begin()));
}

TEST(Dataset, SmallSnapLoadsWithExactTopology) {
  const auto g = load_graph_file(data_path("small-snap.txt"));
  EXPECT_EQ(g.n(), 6u);
  EXPECT_EQ(g.m(), 7u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(diameter(g), 3u);

  // Compaction is by sorted raw id (10 20 30 40 55 100), so raw 10 -> 0,
  // raw 100 -> 5, and the raw edge "100 10" must appear as compacted
  // {0, 5}.
  EXPECT_TRUE(g.has_edge(0, 5));
  // The raw self-loop "20 20" must NOT survive as any edge at node 1.
  EXPECT_FALSE(g.has_edge(1, 1));
}

TEST(Dataset, SmallSnapAutoDetectsAsSnap) {
  std::string format;
  const auto g = load_graph_file(data_path("small-snap.txt"), &format);
  EXPECT_EQ(format, "snap");
  EXPECT_EQ(g.n(), 6u);
  EXPECT_EQ(g.m(), 7u);
}

TEST(Dataset, BfsKernelsAgreeOnSampledRoots) {
  // The flat single-source kernel and the 128-source kernel, push only
  // and direction-optimizing, give one eccentricity per root on the 10k
  // dataset: 512 roots spread evenly over the id space, batched 64 at a
  // time, so every batch leaves the kernel's second mask word empty.
  const auto g = load_graph_file(data_path("synth-p2p-10k.qcg"));
  const std::uint32_t k = 512;
  std::vector<NodeId> roots(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    roots[i] = static_cast<NodeId>((std::uint64_t{i} * g.n()) / k);
  }
  std::vector<std::uint32_t> flat(k);
  BfsScratch scratch;
  for (std::uint32_t i = 0; i < k; ++i) {
    flat[i] = flat_bfs_distances(g, roots[i], scratch);
  }
  // The sample includes a peripheral root: its maximum is the diameter.
  EXPECT_EQ(*std::max_element(flat.begin(), flat.end()), 7u);
  MultiBfsScratch mscratch;
  for (const auto dir :
       {MultiBfsDirection::kPushOnly, MultiBfsDirection::kOptimized}) {
    std::vector<std::uint32_t> multi(k);
    for (std::uint32_t first = 0; first < k; first += 64) {
      multi_source_eccentricities(
          g, std::span<const NodeId>(roots.data() + first, 64),
          multi.data() + first, mscratch, dir);
    }
    EXPECT_EQ(multi, flat)
        << (dir == MultiBfsDirection::kPushOnly ? "push-only" : "diropt");
  }
}

TEST(Dataset, BfsOrderedSweepMatchesFlatTable) {
  // EccEngine's full bit-parallel sweep (128-source batches in BFS order,
  // written back under the original ids) against one flat BFS per vertex,
  // both at 4 threads.
  const auto g = load_graph_file(data_path("synth-p2p-10k.qcg"));
  const EccEngine bit_parallel(g, {4, EccKernel::kBitParallel});
  const EccEngine flat(g, {4, EccKernel::kFlat});
  EXPECT_EQ(bit_parallel.all(), flat.all());
  EXPECT_EQ(bit_parallel.bfs_runs(), g.n());
  EXPECT_EQ(flat.bfs_runs(), g.n());
  EXPECT_EQ(bit_parallel.diameter(), 7u);
}

TEST(Dataset, LargeQcgHeaderAgreesWithGraph) {
  const auto path = data_path("synth-p2p-100k.qcg");
  ASSERT_TRUE(is_qcg_file(path));
  const auto info = qcg_info_file(path);
  EXPECT_EQ(info.version, kQcgVersion);
  EXPECT_EQ(info.encoding, QcgEncoding::kDeltaVarint);
  EXPECT_EQ(info.n, 100000u);
  EXPECT_EQ(info.m(), 299927u);
  // The compact encoding must stay well under the 8 bytes/edge of raw CSR.
  EXPECT_LT(info.bytes_per_edge(), 6.0);
}

}  // namespace
}  // namespace qc::graph
