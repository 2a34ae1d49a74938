#include "core/detail.hpp"

#include <algorithm>
#include <thread>

#include "algos/bfs_tree.hpp"
#include "algos/leader_election.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace qc::core::detail {

using graph::NodeId;

std::uint32_t effective_branch_threads(const QuantumConfig& cfg) {
  if (cfg.net.observer != nullptr) return 1;
  if (cfg.branch_threads != 0) return cfg.branch_threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

void record_quantum_costs(const char* algo, const qsim::SearchCosts& costs,
                          std::uint64_t distinct_evaluations,
                          std::uint64_t reference_bfs_runs) {
  if (!metrics::enabled()) return;
  metrics::count("core.grover_iterations", costs.grover_iterations, algo);
  metrics::count("core.setup_invocations", costs.setup_invocations, algo);
  metrics::count("core.candidate_evaluations", costs.candidate_evaluations,
                 algo);
  metrics::count("core.distinct_branch_evaluations", distinct_evaluations,
                 algo);
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

  const std::uint32_t id_bits = qc::bit_width_for(g.n()) + 1;
  acc += algos::broadcast_from_root(g, init.tree, init.d, id_bits, net).stats;
  init.rounds = acc.rounds;

  // Proposition 2: Setup broadcasts the internal register down BFS(leader)
  // with CNOT copies — per branch this is exactly a value broadcast, so
  // measure its round cost with one instrumentation run (not charged).
  init.t_setup =
      algos::broadcast_from_root(g, init.tree, 0, id_bits, net).stats.rounds;
  span.add(acc.rounds, acc.messages, acc.bits);
  return init;
}

WindowOracle::WindowOracle(const graph::Graph& g,
                           const algos::TreeState& tree, std::uint32_t steps,
                           OracleMode mode, congest::NetworkConfig net,
                           std::vector<bool> mask, std::uint32_t num_threads)
    : g_(&g),
      tree_(&tree),
      steps_(steps),
      mode_(mode),
      net_(std::move(net)),
      mask_(std::move(mask)),
      engine_(g, num_threads) {
  metrics::ScopedTimer span("core.oracle_build");
  graph::BfsTree walk_tree =
      mask_.empty() ? tree.to_bfs_tree()
                    : graph::induced_subtree(tree.to_bfs_tree(), mask_);
  num_ = graph::dfs_numbering(walk_tree);
  // One eccentricity sweep (n BFS) plus an O(len log len) table build here;
  // every branch's reference value is then an O(1) range-max query.
  seg_max_ = engine_.segment_max(num_);
  // Figure 2's round budget is oblivious to u0: Step 1 runs 3*steps rounds
  // (token + probe/reply cycles), Step 2 its fixed pipeline window,
  // Steps 3-4 one convergecast. Every branch costs the same.
  t_eval_forward_ = algos::EvaluationProgram::token_phase_rounds(steps_) +
                    (2 * steps_ + 2 * tree.height + 2) + tree.height + 1;
}

std::int64_t WindowOracle::operator()(std::size_t u0) {
  const auto node = static_cast<NodeId>(u0);
  metrics::count("core.branch_evaluations");
  const std::uint32_t reference = seg_max_.max_ecc_in_segment(node, steps_);
  if (mode_ == OracleMode::kSimulate) {
    simulate_and_check(node, reference);
  } else if (!validated_.load(std::memory_order_acquire)) {
    // kDirect validates one branch: the first caller simulates while
    // concurrent callers wait on the mutex; a validation that throws
    // leaves the latch unset, so the next caller tries again. Not
    // std::call_once: an exception out of it leaves the flag stuck under
    // ThreadSanitizer, so the retry would hang.
    std::lock_guard<std::mutex> lock(validate_mu_);
    if (!validated_.load(std::memory_order_relaxed)) {
      simulate_and_check(node, reference);
      validated_.store(true, std::memory_order_release);
    }
  }
  return static_cast<std::int64_t>(reference);
}

void WindowOracle::simulate_and_check(NodeId u0, std::uint32_t reference) {
  metrics::ScopedTimer span("core.branch_simulate");
  auto eval = algos::evaluate_window_ecc(*g_, *tree_, u0, steps_, net_,
                                         mask_.empty() ? nullptr : &mask_);
  span.add(eval.stats.rounds, eval.stats.messages, eval.stats.bits);
  check_internal(eval.stats.rounds == t_eval_forward_,
                 "WindowOracle: evaluation round budget mismatch");
  check_internal(eval.max_ecc == reference,
                 "WindowOracle: distributed Evaluation disagrees with "
                 "centralized reference");
}

}  // namespace qc::core::detail
