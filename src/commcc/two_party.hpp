#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "commcc/reductions.hpp"
#include "congest/network.hpp"
#include "congest/trace.hpp"
#include "graph/graph.hpp"
#include "qsim/search.hpp"
#include "util/rng.hpp"

namespace qc::commcc {

/// Communication costs of a two-party protocol obtained by simulating a
/// distributed algorithm (the transformations of Theorems 10 and 11).
struct TwoPartyCosts {
  std::uint32_t distributed_rounds = 0;
  std::uint64_t messages = 0;  ///< messages Alice <-> Bob
  std::uint64_t qubits = 0;    ///< qubit capacity the simulation ships
};

/// Theorem 10: an r-round algorithm on G_n(x, y) with b cut edges of
/// bandwidth bw becomes a 2r-message protocol of O(r * b * bw) qubits (one
/// message per direction per round carrying all b edge contents).
TwoPartyCosts theorem10_transform(std::uint32_t rounds, std::uint32_t b,
                                  std::uint32_t bw);

/// Theorem 11: an r-round algorithm on the path network G_d whose
/// intermediate nodes hold at most s qubits becomes an O(r/d)-message
/// protocol of O(r * (bw + s)) qubits — each of the ~r/d blocks of the
/// Figure 7 simulation ships d message registers (bw qubits) and d private
/// registers (s qubits).
TwoPartyCosts theorem11_transform(std::uint32_t rounds, std::uint32_t d,
                                  std::uint32_t bw, std::uint64_t s_memory);

/// The [BGK+15] bound (Theorem 5): an m-message quantum protocol for
/// DISJ_k needs Omega~(k/m + m) qubits. Returns the bound with the polylog
/// suppressed.
double bgk_lower_bound(double k, double messages);

/// Theorem 10 + Theorem 5 combined: any quantum algorithm deciding the
/// (b, k, d1, d2) diameter gap needs Omega~(sqrt(k/b)) rounds.
double theorem10_round_floor(double k, double b);

/// Theorem 3: with s qubits of memory per node, exact diameter needs
/// Omega~(sqrt(n*D/s)) rounds.
double theorem3_round_floor(double n, double diameter, double s_memory);

/// Tallies the traffic crossing a fixed vertex partition during CONGEST
/// executions — the executable core of the Theorem 10 proof: everything
/// Alice's simulation must forward to Bob's is exactly this traffic.
///
/// Arm a NetworkConfig with arm() and pass it to any driver; the meter
/// accumulates across all executions it observes (phased drivers run
/// several Networks). Works in-process and sharded: the meter is a
/// congest::DeliveryObserver, and both backends feed observers the same
/// deterministic event stream.
class CutMeter {
 public:
  explicit CutMeter(std::vector<bool> u_mask);

  /// Returns `base` with the meter installed, composed with any observer
  /// already present.
  congest::NetworkConfig arm(congest::NetworkConfig base) const;

  /// The meter as a plain observer, for manual composition.
  std::shared_ptr<congest::DeliveryObserver> observer() const {
    return sink_;
  }

  std::uint64_t crossing_bits() const { return sink_->bits; }
  std::uint64_t crossing_messages() const { return sink_->messages; }
  /// Largest round index observed with crossing traffic.
  std::uint32_t last_crossing_round() const { return sink_->last_round; }

 private:
  struct Sink final : congest::DeliveryObserver {
    void on_deliver(graph::NodeId from, graph::NodeId to,
                    const congest::Message& msg,
                    std::uint32_t round) override;

    std::vector<bool> u_mask;
    std::uint64_t bits = 0;
    std::uint64_t messages = 0;
    std::uint32_t last_round = 0;
  };
  std::shared_ptr<Sink> sink_;
};

/// Executable Theorem 10: runs a diameter `solver` on G_n(x, y), metering
/// the cut, and packages the result as a two-party DISJ_k protocol
/// transcript ("diameter <= d1" <=> disjoint).
struct TwoPartyRun {
  bool decided_disjoint = false;
  std::uint32_t diameter = 0;
  std::uint32_t rounds = 0;          ///< distributed rounds simulated
  std::uint64_t cut_bits = 0;        ///< traffic Alice <-> Bob actually carried
  TwoPartyCosts costs;               ///< the Theorem 10 charge
};

using DiameterSolver = std::function<std::pair<std::uint32_t, std::uint32_t>(
    const graph::Graph&, const congest::NetworkConfig&)>;

TwoPartyRun two_party_diameter_protocol(const Reduction& red,
                                        const std::vector<bool>& x,
                                        const std::vector<bool>& y,
                                        const DiameterSolver& solver,
                                        congest::NetworkConfig base = {});

/// A concrete protocol over the Figure 5 path network: A holds x, B holds
/// y (k bits each); A streams its input in bandwidth-sized chunks, B
/// answers with DISJ_k(x, y), and the result is relayed back to A.
/// r = Theta(d + k/bw) rounds with s = Theta(bw) bits per intermediate
/// node — the workload the Theorem 11 block simulation is then applied to.
struct PathDisjOutcome {
  bool is_disjoint = false;
  std::uint32_t rounds = 0;
  std::uint64_t max_intermediate_memory_bits = 0;
  TwoPartyCosts theorem11;  ///< the block-simulation charge
};

PathDisjOutcome run_path_disjointness(const std::vector<bool>& x,
                                      const std::vector<bool>& y,
                                      std::uint32_t d,
                                      congest::NetworkConfig cfg = {});

/// Constructive audit of the Theorem 11 premise on a recorded execution
/// over the path network G_d (node ids = positions 0..d+1): information
/// travels one hop per round, so anything B-dependent observed at A (or
/// vice versa) needs >= d+1 rounds, and the execution decomposes into
/// ceil(r/d) blocks whose frontier traffic fits the O(d(bw+s))-qubit
/// shipments of the Figure 7 simulation.
struct Theorem11Audit {
  /// earliest round at which A-originated influence can reach position p
  /// (computed by chasing the trace's message graph).
  std::vector<std::uint32_t> earliest_influence;
  std::uint32_t rounds = 0;
  std::uint32_t blocks = 0;                  ///< ceil(rounds / d)
  std::uint64_t max_block_frontier_bits = 0; ///< per-block mid-cut traffic
  bool light_cone_respected = false;         ///< influence speed <= 1 hop/round
};

Theorem11Audit audit_path_trace(const std::vector<congest::TraceEvent>& trace,
                                std::uint32_t d);

/// The O(sqrt(k) log k)-qubit quantum protocol for DISJ_k ([BCW98], cited
/// in Section 2.2): Alice Grover-searches for a common index, and each
/// oracle query ships the O(log k)-qubit index register to Bob (who
/// phases indices with y_i = 1 among those with x_i = 1) and back.
/// Together with [BGK+15]'s Omega~(k/m + m) this brackets the
/// unbounded-round quantum communication complexity of DISJ at
/// Theta~(sqrt(k)) — the starting point of the paper's lower bounds.
struct QuantumDisjRun {
  bool is_disjoint = false;
  std::size_t witness = 0;      ///< a common index when intersecting
  std::uint64_t messages = 0;   ///< Alice <-> Bob messages
  std::uint64_t qubits = 0;     ///< total qubits shipped
  qsim::SearchCosts costs;
};

QuantumDisjRun quantum_disjointness_protocol(const std::vector<bool>& x,
                                             const std::vector<bool>& y,
                                             double delta, Rng& rng);

}  // namespace qc::commcc
