#pragma once

// Internal building blocks shared by the quantum diameter/radius/decision/
// approx front-ends: the classical initialization phase of Section 3, the
// eccentricity sweep that runs beside it, the Figure 2 branch oracle, and
// the Theorem 7 quantum phase every front-end ends with. Not part of the
// public API surface.

#include <cstdint>
#include <future>
#include <memory>
#include <type_traits>
#include <vector>

#include "algos/evaluation.hpp"
#include "algos/tree_state.hpp"
#include "congest/network.hpp"
#include "core/quantum_diameter.hpp"
#include "graph/algorithms.hpp"
#include "graph/ecc_engine.hpp"
#include "graph/graph.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace qc::core::detail {

/// The classical preliminaries of Section 3: elect a leader, build
/// BFS(leader) with distances (Proposition 1), learn d = ecc(leader), and
/// broadcast d so every node can compute the Figure 2 schedule lengths.
/// That broadcast also gives the Proposition 2 Setup cost t_setup: Setup
/// broadcasts a register of the same width down the same tree, and a tree
/// broadcast's rounds never depend on the value it carries. Throws
/// qc::Error when a fault plan breaks a step, including a BFS that
/// measures d = 0 on n > 1 nodes.
struct InitPhase {
  graph::NodeId leader = graph::kInvalidNode;
  std::uint32_t d = 0;
  algos::TreeState tree;
  std::uint32_t rounds = 0;
  std::uint32_t t_setup = 0;
};

InitPhase run_initialization(const graph::Graph& g,
                             const congest::NetworkConfig& net);

/// The graph's shared EccEngine (Graph::ecc_engine), which a front-end's
/// oracle reads its reference values from, with its eccentricity sweep
/// possibly still running. When the table is not there yet, `threads` > 1
/// and the graph is large enough for a parallel sweep
/// (graph::kEccParallelCutoff), construction starts the sweep (fanned
/// across `threads` workers) on a background task, so whatever the caller
/// runs next overlaps it, and the sweep's span nests under the caller's
/// innermost span. Otherwise no task starts: join() sweeps on the calling
/// thread if the table is still missing, and a graph whose table exists
/// sweeps nothing.
class EngineSweep {
 public:
  EngineSweep() = default;
  EngineSweep(const graph::Graph& g, std::uint32_t threads);

  /// Waits for the background sweep, or runs the sweep here if no task
  /// was started and the table is missing, and hands over the engine.
  std::shared_ptr<const graph::EccEngine> join();

 private:
  std::shared_ptr<const graph::EccEngine> engine_;
  std::uint32_t threads_ = 1;
  std::future<void> task_;
};

/// The initialization together with the sweep of the engine the
/// front-end's oracle reads. A first step toward one prepared graph per op.
struct PreparedInit {
  InitPhase init;
  EngineSweep sweep;
};

/// Starts the engine's sweep (see EngineSweep) and runs run_initialization
/// on the calling thread beside it. Returns with the sweep still running,
/// so the kDirect validation overlaps it too; the two share nothing but
/// the read-only graph.
PreparedInit prepare_init_and_engine(const graph::Graph& g,
                                     const congest::NetworkConfig& net,
                                     std::uint32_t threads);

/// Marks `out` failed with `e`'s message. A front-end calls it when its
/// classical preliminaries throw, so a fault plan that breaks them is
/// reported the way a failing branch is, not thrown.
void mark_failed(const qc::Error& e, QuantumReport& out);

/// Branch-evaluation workers a front-end should actually use: the
/// configured branch_threads (0 = hardware concurrency), forced to 1 when
/// a delivery observer is armed — concurrent branch simulations would
/// interleave the observed event stream nondeterministically.
std::uint32_t effective_branch_threads(const QuantumConfig& cfg);

/// The branch oracle for f(u) = max_{v in segment window of u} ecc(v),
/// with the two evaluation modes of OracleMode. Cross-checks the
/// distributed Figure 2 execution against the centralized reference: on
/// every branch in kSimulate mode, once in read_reference() in kDirect
/// mode (where operator() is a plain table lookup).
///
/// The centralized reference is served by the graph's shared
/// graph::EccEngine — one BFS per vertex for the life of the graph plus an
/// O(1) sparse-table segment query per branch — instead of the naive
/// Theta(d) BFS per branch. The oracle shares the engine rather than
/// owning it, so the front-end may run the sweep before (or beside) the
/// initialization.
///
/// Construction only numbers the walk; read_reference() builds the table,
/// and must run before operator(). operator() is then safe to call from
/// several threads at once (each branch simulation builds its own Network
/// over the shared read-only graph and tree), so a core::BranchEvaluator
/// can fan kSimulate branches across workers.
class WindowOracle {
 public:
  WindowOracle(const graph::Graph& g, const algos::TreeState& tree,
               std::uint32_t steps, OracleMode mode,
               congest::NetworkConfig net, std::vector<bool> mask = {});

  std::uint32_t t_eval_forward() const { return t_eval_forward_; }

  /// BFS runs of the centralized reference path (<= n by construction);
  /// 0 when no table was built.
  std::uint64_t reference_bfs_runs() const {
    return engine_ ? engine_->bfs_runs() : 0;
  }

  /// The first populated branch: 0, or the smallest member of the mask.
  graph::NodeId first_branch() const;

  /// Joins `sweep` and builds the segment-max table over its eccentricity
  /// table. In kDirect mode it first runs Figure 2 for first_branch() on
  /// the calling thread — beside the sweep when that runs on a task — and
  /// after the build checks the run against the table; this is the one
  /// CONGEST execution a kDirect run makes. Throws qc::Error when they
  /// disagree or the simulation fails; a failed simulation throws before
  /// the table is built, so operator() must not be called after it.
  void read_reference(EngineSweep sweep);

  /// f(u0), per the configured mode.
  std::int64_t operator()(std::size_t u0) const;

 private:
  /// Runs Figure 2 for branch u0, checks its round budget and returns its
  /// max_ecc.
  std::uint32_t simulate(graph::NodeId u0) const;
  /// Joins `sweep` and builds seg_max_ from walk_.
  void build_table(EngineSweep& sweep);

  const graph::Graph* g_;
  const algos::TreeState* tree_;
  std::uint32_t steps_;
  OracleMode mode_;
  congest::NetworkConfig net_;
  std::vector<bool> mask_;
  graph::DfsNumbering walk_;  ///< released once the table is built
  std::shared_ptr<const graph::EccEngine> engine_;
  graph::EccEngine::SegmentMax seg_max_;
  std::uint32_t t_eval_forward_ = 0;
};

/// What a front-end's quantum phase has of its own; run_quantum_phase
/// does the rest.
struct PhaseSpec {
  const char* algo = nullptr;  ///< front-end name, labels the cost counters
  /// The tree whose DFS numbering the branch windows walk.
  const algos::TreeState* tree = nullptr;
  std::uint32_t steps = 0;     ///< window width; 0 makes f(u) = ecc(u)
  EngineSweep sweep;           ///< reference values
  /// Restricts the branches, and the Setup support, to these nodes
  /// (Figure 3's R); empty = every node.
  std::vector<bool> mask = {};
  std::uint32_t t_init = 0;    ///< Initialization rounds the phase charges
  std::uint32_t t_setup = 0;
  double epsilon = 0;
  std::uint64_t seed_mix = 0;  ///< the phase's Rng is seeded cfg.seed ^ this
};

template <typename Report>
struct PhaseResult {
  Report report;  ///< the distributed_quantum_optimize/_search report
  std::uint32_t t_eval_forward = 0;  ///< the oracle's Figure 2 Steps 1-4 cost
};

/// Copies a completed phase's costs into the front-end report and tags
/// them in the global metrics registry (no-op when metrics are disabled):
/// Grover/Setup/check counters labeled `algo`, plus the branch-evaluation
/// and reference-BFS totals.
void record_phase(const char* algo, const PhaseReport& phase,
                  std::uint64_t reference_bfs_runs, QuantumReport& out);

/// The Theorem 7 quantum phase: builds the Figure 2 WindowOracle, reads
/// its reference table (in kDirect mode with the one validation run beside
/// the sweep), poses the problem over it — a search (Theorem 6) when
/// `objective` maps f(u) to bool, a maximization when it maps f(u) to an
/// integer — runs it inside the `core.quantum_phase` span, and records its
/// costs in `out`. A validation that throws qc::Error yields the report a
/// failing branch simulation inside the phase does — a default report
/// with `subroutine_failed` and `failure_reason` set — and runs no Grover
/// iterate. The front-end maps the returned report to its own answer.
template <typename Objective>
auto run_quantum_phase(const graph::Graph& g, const QuantumConfig& cfg,
                       std::uint32_t threads, PhaseSpec spec,
                       Objective objective, QuantumReport& out) {
  constexpr bool kSearch =
      std::is_same_v<std::invoke_result_t<Objective, std::int64_t>, bool>;
  using Report = std::conditional_t<kSearch, SearchReport, OptimizationReport>;
  std::conditional_t<kSearch, SearchProblem, OptimizationProblem> prob;
  prob.domain_size = g.n();
  for (std::size_t v = 0; v < spec.mask.size(); ++v) {
    if (spec.mask[v]) prob.support.push_back(v);
  }
  WindowOracle oracle(g, *spec.tree, spec.steps, cfg.oracle, cfg.net,
                      std::move(spec.mask));
  auto f = [&oracle, objective](std::size_t x) {
    return objective(oracle(x));
  };
  if constexpr (kSearch) {
    prob.marked = f;
  } else {
    prob.evaluate = f;
  }
  prob.t_init = spec.t_init;
  prob.t_setup = spec.t_setup;
  prob.t_eval_forward = oracle.t_eval_forward();
  prob.epsilon = spec.epsilon;
  prob.delta = cfg.delta;
  // A kDirect branch is an O(1) table read: a worker pool costs more than
  // it saves.
  prob.num_threads = cfg.oracle == OracleMode::kDirect ? 1 : threads;

  Report report;
  try {
    oracle.read_reference(std::move(spec.sweep));
  } catch (const qc::Error& e) {
    report.subroutine_failed = true;
    report.failure_reason = e.what();
  }
  metrics::PhaseTimer quantum_span(metrics::global(), "core.quantum_phase");
  if (!report.subroutine_failed) {
    Rng rng(cfg.seed ^ spec.seed_mix);
    if constexpr (kSearch) {
      report = distributed_quantum_search(prob, rng);
    } else {
      report = distributed_quantum_optimize(prob, rng);
    }
  }
  // A failed phase reports no rounds, so it charges none.
  if (!report.subroutine_failed) {
    quantum_span.add(report.total_rounds - spec.t_init, 0, 0);
  }
  quantum_span.finish();
  record_phase(spec.algo, report, oracle.reference_bfs_runs(), out);
  return PhaseResult<Report>{std::move(report), oracle.t_eval_forward()};
}

}  // namespace qc::core::detail
