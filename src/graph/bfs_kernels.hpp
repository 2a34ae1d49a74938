#pragma once

// Centralized BFS kernel layer.
//
// Everything that sweeps distances over the CSR substrate funnels through
// the kernels in this header:
//
//  1. flat_bfs_distances — the single-source flat frontier kernel
//     (PR 3), used wherever the full distance array is needed (bfs(),
//     apsp, double sweeps).
//  2. multi_source_eccentricities — a bit-parallel multi-source kernel
//     running up to 128 sources per pass: per vertex a two-word mask of
//     the sources that have reached it, advanced one synchronous level at
//     a time with word-OR merges of the neighbours' masks (the
//     GraphLab/Galois `bitwise_or` gather idiom), with Beamer-style
//     push/pull direction-optimizing switching for the low-diameter
//     regime where nearly the whole graph is frontier. One adjacency pass
//     serves 128 BFS runs, which is what makes full EccEngine sweeps at
//     n >= 10^5 feasible.
//
// Disconnected-graph contract (shared by both kernels): the returned
// eccentricity is kUnreachable when the source's component does not cover
// the whole graph — a finite value is only ever a true eccentricity of
// the whole graph, never a silent component-local one. The distance array
// of the flat kernel still reports per-vertex kUnreachable, and its
// `finite_ecc` scratch field exposes the component-local maximum for the
// callers (double sweeps, BfsResult::ecc) that genuinely want it.
//
// Both kernels are deterministic level-synchronous BFS, so their outputs
// are bit-identical to each other and independent of batch partitioning,
// direction choices, and thread count.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"

namespace qc::graph {

/// Caller-owned scratch buffers for the flat single-source BFS kernel.
/// Reuse one instance across calls (per thread) to amortize the
/// allocations away. After a call, `dist`, `finite_ecc` and `reached`
/// describe the last run.
struct BfsScratch {
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> frontier;
  std::vector<NodeId> next;
  /// Max finite distance of the last run (the component-local
  /// eccentricity); equals the return value on connected graphs.
  std::uint32_t finite_ecc = 0;
  /// Vertices the last run reached, including the root.
  std::uint32_t reached = 0;
};

/// Flat frontier BFS over the CSR adjacency of `g`: fills `scratch.dist`
/// (kUnreachable where not reached) and returns ecc(root), or kUnreachable
/// when the BFS does not reach every vertex (disconnected graph). Distance
/// values are identical to bfs(g, root).dist; no parent array is built.
std::uint32_t flat_bfs_distances(const Graph& g, NodeId root,
                                 BfsScratch& scratch);

/// Most sources one multi_source_eccentricities call takes.
inline constexpr std::uint32_t kMaxBatchSources = 128;

/// One bit per source of a batch: bit i of word i / 64 is sources[i].
using SourceMask = std::array<std::uint64_t, kMaxBatchSources / 64>;

/// Caller-owned scratch for the bit-parallel multi-source kernel: two
/// SourceMask arrays plus the worklists. ~32 bytes per vertex; reuse one
/// instance per thread. A level expands each vertex's whole `visited`
/// mask, and the `& ~visited` filter drops every bit that is not new: a
/// source that reached u before the last level has already reached u's
/// neighbours.
struct MultiBfsScratch {
  std::vector<SourceMask> visited;  ///< sources that reached v
  std::vector<SourceMask> next;     ///< sources first reaching v this level
  std::vector<NodeId> active;       ///< vertices reached at the last level
  std::vector<NodeId> next_active;
};

/// Direction policy for multi_source_eccentricities. Results are
/// bit-identical either way; only the traversal cost differs.
enum class MultiBfsDirection : std::uint8_t {
  kOptimized,  ///< per-level push/pull switch on frontier size (default)
  kPushOnly,   ///< always scatter from the frontier (parity baseline)
};

/// Per-run telemetry: how many levels ran, and how each was traversed.
struct MultiBfsStats {
  std::uint32_t levels = 0;
  std::uint32_t push_levels = 0;
  std::uint32_t pull_levels = 0;
};

/// One synchronous BFS wave from up to 128 sources at once.
///
/// `ecc_out` must have room for sources.size() entries; ecc_out[i]
/// receives ecc(sources[i]), or kUnreachable when sources[i]'s component
/// does not cover the graph — exactly the values flat_bfs_distances
/// returns for the same roots. Duplicate sources are fine (their bits
/// travel together). Throws InvalidArgumentError on an empty batch, more
/// than kMaxBatchSources sources, or an out-of-range source.
MultiBfsStats multi_source_eccentricities(
    const Graph& g, std::span<const NodeId> sources, std::uint32_t* ecc_out,
    MultiBfsScratch& scratch,
    MultiBfsDirection direction = MultiBfsDirection::kOptimized);

/// Kernel selector for EccEngine's full eccentricity sweep.
enum class EccKernel : std::uint8_t {
  kAuto,         ///< bit-parallel for large graphs, flat below the cutoff
  kFlat,         ///< one flat_bfs_distances run per vertex
  kBitParallel,  ///< 128-source direction-optimizing batches
};

}  // namespace qc::graph
