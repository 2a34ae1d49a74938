#pragma once

// The four workloads and the per-layer probe suite. Every workload fills
// RunResult::e2e and ::report from its own op loop and returns the loop's
// latencies; run_probes fills RunResult::layer for traced runs.

#include <cstdint>
#include <string>

#include "e2e.hpp"
#include "graph/graph.hpp"

namespace e2e {

/// Checked-in inputs, relative to the checkout root.
inline constexpr const char* kDataset = "data/synth-p2p-10k.qcg";
inline constexpr const char* kSmallSnap = "data/small-snap.txt";

/// Diameter of the generated Figure 2 graphs.
inline constexpr std::uint32_t kFig2Diameter = 16;

/// What every workload and probe works against.
struct Env {
  const Options& opt;
  Tracer& tracer;
  RunResult& res;
  /// ServerStats summed over every serve::Server the run started.
  std::uint64_t serve_rejected = 0;
  std::uint64_t serve_errors = 0;

  /// Ops a loop runs at least: a traced run needs one traced and one
  /// untraced op to measure the tracing overhead.
  std::uint64_t min_ops() const { return opt.trace ? 2 : 1; }
};

/// Seed of the diam:n:16 graph a Figure 2 workload runs on: the first
/// generator draw (sub-seeds of `seed`) whose leader — node n-1, the
/// flood-max winner — sits at a diameter endpoint, so the Figure 2 window
/// is the worst case 2D in every run and runs compare like for like.
std::uint64_t fig2_graph_seed(std::uint32_t n, std::uint64_t seed);

/// Builds the Figure 2 graph for a seed from fig2_graph_seed.
qc::graph::Graph fig2_graph(std::uint32_t n, std::uint64_t graph_seed);

/// fig2-sim-1024 (`armed` false) and fig2-metrics-512 (`armed` true).
LoopStats run_fig2(Env& env, std::uint32_t n, bool armed);
/// dataset-10k-direct.
LoopStats run_dataset_direct(Env& env);
/// serve-10k-mix.
LoopStats run_serve_mix(Env& env);

/// Per-layer probes: fixed inputs derived from the run seed, each public
/// call inside a span, every per-layer metric of BENCHMARK.json.
void run_probes(Env& env);

}  // namespace e2e
