#pragma once

// Shared eccentricity/distance engine.
//
// The Theorem 1 reference path evaluates f(u) = max_{v in segment(u)} ecc(v)
// over Euler-walk windows that overlap heavily across the n branches. Doing
// that naively costs one BFS per window member per branch — Theta(n*d) BFS
// runs where n suffice. This engine factors the work into three reusable
// pieces:
//
//  1. the BFS kernel layer of graph/bfs_kernels.hpp — the flat
//     single-source kernel plus the bit-parallel 128-source
//     direction-optimizing multi-source kernel the full sweep runs on,
//  2. a thread-safe compute-once eccentricity cache (batches of 128
//     sources, taken in BFS order so each batch is a neighbourhood,
//     fanned across qc::ThreadPool — exactly one BFS per vertex, ever,
//     regardless of kernel or thread count),
//  3. a sparse-table (binary-lifting) range-maximum structure over the
//     Euler-walk positions of a DfsNumbering, answering
//     max_ecc_in_segment(u, steps) in O(1) per query after an
//     O(n*BFS + len*log(len)) build.
//
// Disconnected graphs: every eccentricity (and therefore diameter, radius,
// and every segment maximum) is kUnreachable — in a graph with two or more
// components no vertex reaches everything — matching the per-vertex
// kUnreachable convention of BfsResult::dist and apsp. The engine never
// reports a silent component-local value.
//
// The engine only accelerates the *centralized reference* computations; the
// distributed Figure 2 simulation (round accounting, message traffic, the
// kSimulate cross-check) is untouched and stays bit-identical.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/bfs_kernels.hpp"
#include "graph/graph.hpp"

namespace qc::graph {

/// Below this many vertices a sweep runs serially whatever its worker
/// count: spawning workers would cost more than the BFS runs.
inline constexpr std::uint32_t kEccParallelCutoff = 256;

/// Tuning knobs for EccEngine. Every setting changes cost only, never
/// results: eccentricity tables are bit-identical across kernels and
/// thread counts.
struct EccOptions {
  /// Workers for the one-time sweep; 0 means hardware_concurrency. Graphs
  /// below kEccParallelCutoff always compute serially.
  std::uint32_t num_threads = 0;
  /// Sweep kernel; kAuto picks bit-parallel for large graphs.
  EccKernel kernel = EccKernel::kAuto;
};

/// Compute-once eccentricity cache over a fixed graph, plus O(1) range-max
/// queries over Euler-walk segments.
///
/// Thread-safe: the first accessor to need the eccentricities computes all
/// of them exactly once (128-source bit-parallel batches fanned across a
/// ThreadPool for large graphs); concurrent readers block until the table
/// is ready and then read without locking. Every derived value (diameter,
/// radius, segment maxima) is a pure function of the table, so results are
/// independent of thread count and kernel choice.
///
/// Lifetime: the engine holds the Graph *by value*. Graph copies are O(1)
/// and share the underlying CSR storage, so the engine stays valid after
/// the caller's Graph object goes out of scope. The one exception is the
/// engine a graph caches for all its copies (Graph::ecc_engine), whose
/// Graph borrows the storage it lives in; its handle keeps that alive.
class EccEngine {
 public:
  /// `num_threads` = 0 means hardware_concurrency (see EccOptions).
  explicit EccEngine(Graph g, std::uint32_t num_threads = 0)
      : EccEngine(std::move(g), EccOptions{num_threads, EccKernel::kAuto}) {}

  EccEngine(Graph g, const EccOptions& opts);

  const Graph& graph() const { return g_; }

  /// ecc(v); forces the (single) full computation on first use.
  /// kUnreachable when the graph is disconnected.
  std::uint32_t eccentricity(NodeId v) const;

  /// All eccentricities, indexed by vertex (all kUnreachable when the
  /// graph is disconnected).
  const std::vector<std::uint32_t>& all() const;

  /// kUnreachable when the graph is disconnected.
  std::uint32_t diameter() const;
  /// kUnreachable when the graph is disconnected.
  std::uint32_t radius() const;
  /// A center vertex (minimum eccentricity, smallest id on ties; vertex 0
  /// on a disconnected graph, where every eccentricity is kUnreachable).
  NodeId center() const;

  /// Computes the table now unless it is there already, fanned across
  /// `num_threads` workers (0 = the engine's EccOptions::num_threads). The
  /// first caller fixes the count; a concurrent caller blocks until the
  /// table is ready. The table does not depend on the count.
  void sweep(std::uint32_t num_threads = 0) const;

  /// True once the eccentricity table is computed. Never forces the
  /// sweep, so a caller with a cheaper way to its answer can take it while
  /// the table is absent, and read the table once it is there.
  bool ready() const { return ready_.load(std::memory_order_acquire); }

  /// Number of BFS runs the engine has executed (each source of a
  /// bit-parallel batch counts as one). At most n for the life of the
  /// engine — the counter the reference-path cost assertions check.
  std::uint64_t bfs_runs() const {
    return bfs_runs_.load(std::memory_order_relaxed);
  }

  /// O(1) max-eccentricity queries over segments of one Euler walk.
  ///
  /// Built from a DfsNumbering (of the full BFS tree or of an induced
  /// subtree — anything dfs_numbering produces); self-contained after
  /// construction: it copies what it needs and shares ownership of the
  /// engine's eccentricity table, so it may outlive both the numbering
  /// and the engine itself.
  class SegmentMax {
   public:
    /// Empty structure; assign from EccEngine::segment_max before querying.
    SegmentMax() = default;

    /// max_{v in segment window of u} ecc(v): bit-identical to
    /// graph::max_ecc_in_segment(g, num, u, steps) on the same numbering.
    std::uint32_t max_ecc_in_segment(NodeId u, std::uint32_t steps) const;

   private:
    friend class EccEngine;
    std::uint32_t range_max(std::uint32_t lo, std::uint32_t hi) const;

    std::vector<std::uint32_t> tau_;  ///< first-visit time per node
    std::vector<bool> in_walk_;       ///< nodes the walk reaches
    std::uint32_t len_ = 0;           ///< closed-walk length (2(k-1))
    /// Shared ownership of the engine's table (n == 1 walks and
    /// out-of-table queries read it directly).
    std::shared_ptr<const std::vector<std::uint32_t>> ecc_;
    std::vector<std::uint32_t> log2_;                ///< floor(log2(i))
    std::vector<std::vector<std::uint32_t>> table_;  ///< sparse table
  };

  /// Builds the range-max structure for `num` (forces the eccentricity
  /// table). O(len * log(len)) time and space.
  SegmentMax segment_max(const DfsNumbering& num) const;

 private:
  void sweep_flat(std::vector<std::uint32_t>& table,
                  std::uint32_t workers) const;
  void sweep_bit_parallel(std::vector<std::uint32_t>& table,
                          std::uint32_t workers) const;

  Graph g_;  ///< by value: shares the CSR storage
  EccOptions opts_;
  mutable std::once_flag computed_;
  /// The table lives behind a shared_ptr so SegmentMax instances can
  /// outlive the engine; written exactly once inside sweep().
  mutable std::shared_ptr<std::vector<std::uint32_t>> ecc_;
  mutable std::atomic<std::uint64_t> bfs_runs_{0};
  /// Set (release) once ecc_ is written; read by ready().
  mutable std::atomic<bool> ready_{false};
};

}  // namespace qc::graph
