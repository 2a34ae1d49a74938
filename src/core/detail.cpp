#include "core/detail.hpp"

#include <algorithm>
#include <future>
#include <thread>
#include <utility>

#include "algos/bfs_tree.hpp"
#include "algos/leader_election.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace qc::core::detail {

using graph::NodeId;

namespace {

constexpr const char* kDisagrees =
    "WindowOracle: distributed Evaluation disagrees with centralized "
    "reference";

}  // namespace

std::uint32_t effective_branch_threads(const QuantumConfig& cfg) {
  if (cfg.net.observer != nullptr) return 1;
  if (cfg.branch_threads != 0) return cfg.branch_threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

void mark_failed(const qc::Error& e, QuantumReport& out) {
  out.subroutine_failed = true;
  out.failure_reason = e.what();
}

void record_phase(const char* algo, const PhaseReport& phase,
                  std::uint64_t reference_bfs_runs, QuantumReport& out) {
  out.total_rounds = phase.total_rounds;
  out.costs = phase.costs;
  out.distinct_branch_evaluations = phase.distinct_evaluations;
  out.reference_bfs_runs = reference_bfs_runs;
  out.per_node_memory_qubits = phase.per_node_memory_qubits;
  out.leader_memory_qubits = phase.leader_memory_qubits;
  out.subroutine_failed = phase.subroutine_failed;
  out.failure_reason = phase.failure_reason;
  if (!metrics::enabled()) return;
  const auto& costs = phase.costs;
  metrics::count("core.grover_iterations", costs.grover_iterations, algo);
  metrics::count("core.setup_invocations", costs.setup_invocations, algo);
  metrics::count("core.candidate_evaluations", costs.candidate_evaluations,
                 algo);
  metrics::count("core.distinct_branch_evaluations",
                 phase.distinct_evaluations, algo);
  metrics::count("core.reference_bfs_runs", reference_bfs_runs, algo);
}

InitPhase run_initialization(const graph::Graph& g,
                             const congest::NetworkConfig& net) {
  metrics::ScopedTimer span("core.init");
  InitPhase init;
  congest::RunStats acc;

  const auto election = algos::elect_leader(g, net);
  acc += election.stats;
  init.leader = election.leader;

  auto ecc = algos::compute_eccentricity(g, init.leader, net);
  acc += ecc.stats;
  init.tree = std::move(ecc.tree);
  init.d = ecc.ecc;
  // A connected graph on n > 1 nodes has ecc >= 1; d = 0 means the fault
  // plan cut BFS(leader) short, and no schedule can be built from it.
  if (g.n() > 1 && init.d == 0) {
    throw Error("initialization: BFS(leader) measured ecc(leader) = 0");
  }

  const std::uint32_t id_bits = qc::bit_width_for(g.n()) + 1;
  const auto announce =
      algos::broadcast_from_root(g, init.tree, init.d, id_bits, net).stats;
  acc += announce;
  init.rounds = acc.rounds;
  // Proposition 2: Setup broadcasts the internal register down BFS(leader)
  // with CNOT copies — per branch exactly a broadcast of this width over
  // this tree, whose rounds do not depend on the value carried.
  init.t_setup = announce.rounds;
  span.add(acc.rounds, acc.messages, acc.bits);
  return init;
}

EngineSweep::EngineSweep(const graph::Graph& g, std::uint32_t threads)
    : engine_(g.ecc_engine()), threads_(threads) {
  // A task only pays when the sweep is still to come and would fan out:
  // below the cutoff it runs serially, and a thread start plus a join
  // cost more than the sweep itself.
  if (threads > 1 && g.n() >= graph::kEccParallelCutoff &&
      !engine_->ready()) {
    task_ = std::async(std::launch::async, [engine = engine_, threads,
                                            parent = metrics::current_span()] {
      const metrics::AdoptSpanParent adopt(parent);
      engine->sweep(threads);
    });
  }
}

std::shared_ptr<const graph::EccEngine> EngineSweep::join() {
  if (task_.valid()) {
    task_.get();
  } else if (engine_ != nullptr) {
    engine_->sweep(threads_);
  }
  return std::move(engine_);
}

PreparedInit prepare_init_and_engine(const graph::Graph& g,
                                     const congest::NetworkConfig& net,
                                     std::uint32_t threads) {
  PreparedInit prep{{}, EngineSweep(g, threads)};
  prep.init = run_initialization(g, net);
  return prep;
}

WindowOracle::WindowOracle(const graph::Graph& g,
                           const algos::TreeState& tree, std::uint32_t steps,
                           OracleMode mode, congest::NetworkConfig net,
                           std::vector<bool> mask)
    : g_(&g),
      tree_(&tree),
      steps_(steps),
      mode_(mode),
      net_(std::move(net)),
      mask_(std::move(mask)) {
  walk_ = graph::dfs_numbering(
      mask_.empty() ? tree.to_bfs_tree()
                    : graph::induced_subtree(tree.to_bfs_tree(), mask_));
  // Figure 2's round budget is oblivious to u0: Step 1 runs 3*steps rounds
  // (token + probe/reply cycles), Step 2 its fixed pipeline window,
  // Steps 3-4 one convergecast. Every branch costs the same.
  t_eval_forward_ = algos::EvaluationProgram::token_phase_rounds(steps_) +
                    (2 * steps_ + 2 * tree.height + 2) + tree.height + 1;
}

NodeId WindowOracle::first_branch() const {
  if (mask_.empty()) return 0;
  const auto u0 = static_cast<NodeId>(
      std::find(mask_.begin(), mask_.end(), true) - mask_.begin());
  check_internal(u0 < g_->n(), "WindowOracle: empty branch mask");
  return u0;
}

void WindowOracle::read_reference(EngineSweep sweep) {
  if (mode_ != OracleMode::kDirect) {
    build_table(sweep);
    return;
  }
  const NodeId u0 = first_branch();
  // A simulation that throws leaves no table: a failed phase reads none.
  const std::uint32_t simulated = simulate(u0);
  build_table(sweep);
  check_internal(simulated == seg_max_.max_ecc_in_segment(u0, steps_),
                 kDisagrees);
}

void WindowOracle::build_table(EngineSweep& sweep) {
  metrics::ScopedTimer span("core.oracle_build");
  engine_ = sweep.join();
  // An O(len log len) table build over the engine's eccentricity table
  // (swept in join() unless a background task or an earlier front-end on
  // this graph already did); every branch's reference value is then an
  // O(1) range-max query.
  seg_max_ = engine_->segment_max(walk_);
  walk_ = {};
}

std::int64_t WindowOracle::operator()(std::size_t u0) const {
  const auto node = static_cast<NodeId>(u0);
  metrics::count("core.branch_evaluations");
  const std::uint32_t reference = seg_max_.max_ecc_in_segment(node, steps_);
  if (mode_ == OracleMode::kSimulate) {
    check_internal(simulate(node) == reference, kDisagrees);
  }
  return static_cast<std::int64_t>(reference);
}

std::uint32_t WindowOracle::simulate(NodeId u0) const {
  metrics::ScopedTimer span("core.branch_simulate");
  auto eval = algos::evaluate_window_ecc(*g_, *tree_, u0, steps_, net_,
                                         mask_.empty() ? nullptr : &mask_);
  span.add(eval.stats.rounds, eval.stats.messages, eval.stats.bits);
  check_internal(eval.stats.rounds == t_eval_forward_,
                 "WindowOracle: evaluation round budget mismatch");
  return eval.max_ecc;
}

}  // namespace qc::core::detail
