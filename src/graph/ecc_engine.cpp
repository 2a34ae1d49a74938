#include "graph/ecc_engine.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace qc::graph {

namespace {

// kAuto kernel choice: bit-parallel once a sweep spans a few bit-parallel
// batches; below that the flat kernel's simpler per-level loop wins.
constexpr std::uint32_t kBitParallelCutoff = 256;

constexpr std::uint32_t kBatch = kMaxBatchSources;

// Every vertex once, in BFS order from the max-degree vertex (smallest id
// on ties), continuing from the smallest unvisited id until every
// component is covered. Consecutive vertices are close in the graph, so a
// batch of them advances as a few shared fronts instead of scattered
// ones.
std::vector<NodeId> bfs_order(const Graph& g) {
  const std::uint32_t n = g.n();
  NodeId root = 0;
  for (NodeId v = 1; v < n; ++v) {
    if (g.degree(v) > g.degree(root)) root = v;
  }
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<bool> seen(n, false);
  NodeId unseen = 0;
  for (;;) {
    seen[root] = true;
    order.push_back(root);
    for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
      for (const NodeId u : g.neighbors(order[head])) {
        if (!seen[u]) {
          seen[u] = true;
          order.push_back(u);
        }
      }
    }
    while (unseen < n && seen[unseen]) ++unseen;
    if (unseen == n) return order;
    root = unseen;
  }
}

}  // namespace

EccEngine::EccEngine(Graph g, const EccOptions& opts)
    : g_(std::move(g)), opts_(opts) {
  require(g_.n() > 0, "EccEngine: empty graph");
  if (opts_.num_threads == 0) {
    opts_.num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
}

void EccEngine::sweep_flat(std::vector<std::uint32_t>& table,
                           std::uint32_t workers) const {
  const std::uint32_t n = g_.n();
  workers = std::min(workers, n);
  if (n < kEccParallelCutoff || workers <= 1) {
    BfsScratch scratch;
    for (NodeId v = 0; v < n; ++v) {
      table[v] = flat_bfs_distances(g_, v, scratch);
    }
    bfs_runs_.fetch_add(n, std::memory_order_relaxed);
  } else {
    ThreadPool pool(workers);
    std::atomic<NodeId> next{0};
    for (std::uint32_t w = 0; w < workers; ++w) {
      pool.submit([this, &next, &table, n] {
        BfsScratch scratch;
        for (;;) {
          const NodeId v = next.fetch_add(1);
          if (v >= n) return;
          table[v] = flat_bfs_distances(g_, v, scratch);
          bfs_runs_.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    pool.wait_idle();
  }
}

void EccEngine::sweep_bit_parallel(std::vector<std::uint32_t>& table,
                                   std::uint32_t workers) const {
  const std::uint32_t n = g_.n();
  const std::uint32_t batches = (n + kBatch - 1) / kBatch;
  const std::vector<NodeId> order = bfs_order(g_);
  // Batch b is order[b * kBatch, ...). `order` is a permutation, so
  // batches write disjoint table entries and workers never race; the
  // atomic batch counter is the only shared mutable state.
  const auto run_batch = [this, &table, &order, n](std::uint32_t b,
                                                   MultiBfsScratch& scratch) {
    const std::uint32_t first = b * kBatch;
    const std::uint32_t k = std::min(kBatch, n - first);
    std::uint32_t ecc[kBatch];
    multi_source_eccentricities(
        g_, std::span<const NodeId>(order.data() + first, k), ecc, scratch);
    for (std::uint32_t i = 0; i < k; ++i) table[order[first + i]] = ecc[i];
    bfs_runs_.fetch_add(k, std::memory_order_relaxed);
  };
  workers = std::min(workers, batches);
  if (n < kEccParallelCutoff || workers <= 1) {
    MultiBfsScratch scratch;
    for (std::uint32_t b = 0; b < batches; ++b) run_batch(b, scratch);
  } else {
    ThreadPool pool(workers);
    std::atomic<std::uint32_t> next{0};
    for (std::uint32_t w = 0; w < workers; ++w) {
      pool.submit([&next, &run_batch, batches] {
        MultiBfsScratch scratch;
        for (;;) {
          const std::uint32_t b = next.fetch_add(1);
          if (b >= batches) return;
          run_batch(b, scratch);
        }
      });
    }
    pool.wait_idle();
  }
}

void EccEngine::sweep(std::uint32_t num_threads) const {
  if (ready()) return;
  if (num_threads == 0) num_threads = opts_.num_threads;
  std::call_once(computed_, [this, num_threads] {
    metrics::ScopedTimer span("graph.ecc_sweep");
    const std::uint32_t n = g_.n();
    auto table = std::make_shared<std::vector<std::uint32_t>>(n);
    EccKernel kernel = opts_.kernel;
    if (kernel == EccKernel::kAuto) {
      kernel = n >= kBitParallelCutoff ? EccKernel::kBitParallel
                                       : EccKernel::kFlat;
    }
    if (kernel == EccKernel::kBitParallel) {
      sweep_bit_parallel(*table, num_threads);
    } else {
      sweep_flat(*table, num_threads);
    }
    ecc_ = std::move(table);
    ready_.store(true, std::memory_order_release);
    metrics::count("graph.reference_bfs_runs",
                   bfs_runs_.load(std::memory_order_relaxed));
  });
}

std::uint32_t EccEngine::eccentricity(NodeId v) const {
  require(v < g_.n(), "EccEngine::eccentricity: node out of range");
  sweep();
  return (*ecc_)[v];
}

const std::vector<std::uint32_t>& EccEngine::all() const {
  sweep();
  return *ecc_;
}

std::uint32_t EccEngine::diameter() const {
  const auto& e = all();
  return *std::max_element(e.begin(), e.end());
}

std::uint32_t EccEngine::radius() const {
  const auto& e = all();
  return *std::min_element(e.begin(), e.end());
}

NodeId EccEngine::center() const {
  const auto& e = all();
  return static_cast<NodeId>(std::min_element(e.begin(), e.end()) - e.begin());
}

EccEngine::SegmentMax EccEngine::segment_max(const DfsNumbering& num) const {
  sweep();
  SegmentMax sm;
  sm.tau_ = num.tau;
  sm.in_walk_ = num.in_walk;
  sm.ecc_ = ecc_;  // shared: sm may outlive this engine
  sm.len_ = num.walk_length();
  const std::uint32_t len = sm.len_;
  if (len == 0) return sm;  // single-vertex walk: queries read ecc_[u]

  // Sparse table over the per-position values ecc(walk[t]), t in
  // [0, len): position len duplicates position 0 (the walk is closed) and
  // the circular window arithmetic below never indexes it.
  sm.log2_.assign(len + 1, 0);
  for (std::uint32_t i = 2; i <= len; ++i) sm.log2_[i] = sm.log2_[i / 2] + 1;
  const std::uint32_t levels = sm.log2_[len] + 1;
  sm.table_.resize(levels);
  sm.table_[0].resize(len);
  for (std::uint32_t t = 0; t < len; ++t) {
    sm.table_[0][t] = (*ecc_)[num.walk[t]];
  }
  for (std::uint32_t k = 1; k < levels; ++k) {
    const std::uint32_t half = 1u << (k - 1);
    const std::uint32_t span = 1u << k;
    sm.table_[k].resize(len - span + 1);
    for (std::uint32_t t = 0; t + span <= len; ++t) {
      sm.table_[k][t] =
          std::max(sm.table_[k - 1][t], sm.table_[k - 1][t + half]);
    }
  }
  return sm;
}

std::uint32_t EccEngine::SegmentMax::range_max(std::uint32_t lo,
                                               std::uint32_t hi) const {
  const std::uint32_t k = log2_[hi - lo + 1];
  return std::max(table_[k][lo], table_[k][hi + 1 - (1u << k)]);
}

std::uint32_t EccEngine::SegmentMax::max_ecc_in_segment(
    NodeId u, std::uint32_t steps) const {
  require(u < tau_.size() && in_walk_[u],
          "SegmentMax: u is not on the traversal");
  if (len_ == 0) return (*ecc_)[u];
  const std::uint32_t start = tau_[u];
  const std::uint32_t moves = std::min(steps, len_);
  if (moves == len_) return range_max(0, len_ - 1);
  const std::uint32_t end = start + moves;  // inclusive final position
  if (end < len_) return range_max(start, end);
  // The window wraps: positions [start, len) then [0, end - len].
  return std::max(range_max(start, len_ - 1), range_max(0, end - len_));
}

}  // namespace qc::graph
