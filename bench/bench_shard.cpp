// Scaling profile of the sharded multi-process CONGEST backend against the
// in-process sequential engine, on the flooding workload: every node
// broadcasts a two-field message every round, so every directed edge
// carries one delivery per round — the densest traffic the model allows,
// and close to the worst case for the shard boundary.
//
// Two workloads:
//   * toy (default): the synthetic fixed-diameter random graph the bench
//     has always used (--n/--d override the size);
//   * --dataset=FILE: any graph file (.qcg container, edge list, SNAP raw),
//     e.g. data/synth-p2p-10k.qcg.
//
// Rows: the in-process sequential engine, then ShardedNetwork at
// W ∈ {1, 2, 4, 8} workers, each owning one contiguous id range. Per row
// the table reports the static boundary fraction, the coordinator's
// barrier wait per round and the boundary bytes the coordinator relays
// per round.
//
// Every sharded row is gated on bit-identical parity with the sequential
// run — message count, bit count, round count, quiescence flag, and an
// order-sensitive per-node inbox checksum recovered through the
// state-harvest path. A parity failure is a hard nonzero exit on every
// run, not just under --check. `--check` additionally arms the
// zero-allocation gates: this binary installs the alloc probe, the timed
// reps must not allocate on the coordinator, and every worker arms its own
// probe after warmup (ShardConfig::verify_zero_alloc_from_round) — a
// steady-state allocation on either side of the barrier fails the bench.
// ctest runs `--quick --check` on the toy graph and on the 10k dataset.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "congest/network.hpp"
#include "congest/shard/partition.hpp"
#include "congest/shard/sharded_network.hpp"
#include "graph/io.hpp"
#include "util/alloc_probe.hpp"
#include "util/error.hpp"

QC_INSTALL_ALLOC_PROBE();

using namespace qc;
using namespace qc::bench;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::milli>(dt).count();
}

/// Order-sensitive hash fold; summing per-node hashes gives a workload
/// checksum every engine must reproduce exactly on fault-free runs.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// Flooding program: broadcast (id, round) each round, hash everything
/// heard. Serializes its hash so the sharded engine's harvest can bring
/// the checksum back to the coordinator for the parity gate.
class Flood final : public congest::NodeProgram {
 public:
  void on_start(congest::NodeContext& ctx) override { blast(ctx); }

  void on_round(congest::NodeContext& ctx) override {
    for (const auto& in : ctx.inbox()) {
      sum_ = mix(mix(mix(sum_, in.port), in.msg.field(0)), in.msg.field(1));
    }
    blast(ctx);
  }

  void serialize_state(congest::Message& out) const override {
    out.push(sum_, 64);
  }
  void restore_state(const congest::Message& in) override {
    require(in.num_fields() == 1, "Flood::restore_state: bad shape");
    sum_ = in.field(0);
  }

  std::uint64_t sum() const { return sum_; }

 private:
  static void blast(congest::NodeContext& ctx) {
    congest::Message m;
    m.push(ctx.id(), ctx.id_bits());
    m.push(ctx.round() & 0xFFFFu, 16);
    ctx.broadcast(m);
  }

  std::uint64_t sum_ = 0;
};

struct Result {
  double ms = 0.0;                   ///< best (min) timed repetition
  std::uint64_t messages = 0;        ///< deliveries in that repetition
  std::uint64_t total_messages = 0;  ///< deliveries across all repetitions
  std::uint64_t total_bits = 0;
  std::uint64_t rounds = 0;          ///< total rounds across all repetitions
  bool quiesced = false;             ///< final phase's quiescence flag
  std::uint64_t checksum = 0;
  std::uint64_t boundary_arcs = 0;   ///< directed edges crossing shards
  std::uint64_t timed_allocs = 0;    ///< coordinator heap allocs in the reps
  // From ShardedNetwork::perf(), accumulated over warmup + reps:
  double barrier_us_per_round = 0.0;
  double boundary_bytes_per_round = 0.0;

  double msgs_per_sec() const {
    return static_cast<double>(messages) / std::max(ms, 1e-9) * 1e3;
  }
  double ns_per_delivery() const {
    return ms * 1e6 / static_cast<double>(std::max<std::uint64_t>(messages, 1));
  }
};

/// One benchmark pass over any engine with the Network-shaped API:
/// init, warmup, `reps` timed phases, then the per-node checksum. The
/// sequence of run_rounds calls is identical for every engine, so the
/// accumulated stats are directly comparable. The coordinator-side alloc
/// probe brackets exactly the timed reps: warmup owns every one-time
/// capacity growth, so a warmed steady state must stay at zero.
template <typename Net>
Result drive(Net& net, const graph::Graph& g, std::uint32_t warm,
             std::uint32_t rounds, std::uint32_t reps) {
  net.init_programs([](graph::NodeId) { return std::make_unique<Flood>(); });
  net.run_rounds(warm);
  Result r;
  const std::uint64_t a0 = qc::alloc_probe_count();
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const congest::RunStats st = net.run_rounds(rounds);
    const double ms = ms_since(t0);
    if (rep == 0 || ms < r.ms) {
      r.ms = ms;
      r.messages = st.messages;
    }
    r.total_messages += st.messages;
    r.total_bits += st.bits;
    r.quiesced = st.quiesced;
  }
  r.timed_allocs = qc::alloc_probe_count() - a0;
  r.rounds = net.stats().rounds;
  for (graph::NodeId v = 0; v < g.n(); ++v) {
    r.checksum += net.template program_as<Flood>(v).sum();
  }
  return r;
}

Result run_sequential(const graph::Graph& g, std::uint64_t seed,
                      std::uint32_t warm, std::uint32_t rounds,
                      std::uint32_t reps) {
  congest::NetworkConfig cfg;
  cfg.seed = seed;
  congest::Network net(g, cfg);
  return drive(net, g, warm, rounds, reps);
}

Result run_sharded(const graph::Graph& g, std::uint32_t shards, bool check,
                   std::uint64_t seed, std::uint32_t warm,
                   std::uint32_t rounds, std::uint32_t reps) {
  congest::shard::ShardConfig cfg;
  cfg.shards = shards;
  cfg.net.seed = seed;
  // Workers arm their own alloc probes after the warmup rounds; a
  // steady-state allocation in any worker fails its run (and thus the
  // bench) with a descriptive error.
  if (check) cfg.verify_zero_alloc_from_round = warm;
  congest::shard::ShardedNetwork net(g, cfg);
  Result r = drive(net, g, warm, rounds, reps);
  for (std::uint32_t s = 0; s < shards; ++s) {
    r.boundary_arcs +=
        congest::shard::boundary_arcs(g, net.assignment(), s).size();
  }
  const auto& perf = net.perf();
  const double per_round =
      1.0 / static_cast<double>(std::max<std::uint64_t>(perf.rounds, 1));
  r.barrier_us_per_round =
      static_cast<double>(perf.barrier_wait_us) * per_round;
  r.boundary_bytes_per_round =
      static_cast<double>(perf.boundary_bytes) * per_round;
  net.shutdown();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(
      argc, argv, {"n", "d", "rounds", "check", "dataset"});
  Cli cli(argc, argv);
  const std::string dataset = cli.get_string("dataset", "");
  const auto n =
      static_cast<std::uint32_t>(cli.get_int("n", opt.quick ? 192 : 512));
  const auto d =
      static_cast<std::uint32_t>(cli.get_int("d", opt.quick ? 12 : 32));
  const std::uint32_t default_rounds =
      dataset.empty() ? (opt.quick ? 40u : 160u) : (opt.quick ? 12u : 40u);
  const auto rounds =
      static_cast<std::uint32_t>(cli.get_int("rounds", default_rounds));
  const bool check = cli.get_bool("check", false);
  const std::uint32_t warm = 8;
  const std::uint32_t reps = dataset.empty() ? (opt.quick ? 2 : 4)
                                             : (opt.quick ? 1 : 2);

  banner("sharded multi-process engine vs in-process sequential",
         "flooding workload: one delivery per directed edge per round; "
         "every sharded row must be bit-identical to the sequential run");

  graph::Graph g = [&] {
    if (dataset.empty()) return workload(n, d, opt.seed);
    std::cout << "dataset: " << dataset << "\n";
    return graph::load_graph_file(dataset);
  }();

  struct NamedResult {
    std::string name;
    std::uint32_t shards;  ///< 0 = in-process
    Result r;
  };
  std::vector<NamedResult> results;
  results.push_back({"seq", 0, run_sequential(g, opt.seed, warm, rounds, reps)});
  for (const std::uint32_t w : {1u, 2u, 4u, 8u}) {
    results.push_back({"shard_w" + std::to_string(w), w,
                       run_sharded(g, w, check, opt.seed, warm, rounds,
                                   reps)});
  }

  const Result& seq = results[0].r;
  const std::uint64_t arcs_total = 2ull * g.m();

  Table t({"config", "ms", "msgs/sec", "ns/delivery", "boundary%",
           "barrier us/rd", "bytes/rd", "vs seq"});
  for (const auto& nr : results) {
    const double bfrac =
        100.0 * static_cast<double>(nr.r.boundary_arcs) /
        static_cast<double>(std::max<std::uint64_t>(arcs_total, 1));
    const bool sharded = nr.shards != 0;
    t.add_row({nr.name, fmt(nr.r.ms, 1), fmt(nr.r.msgs_per_sec(), 0),
               fmt(nr.r.ns_per_delivery(), 1),
               sharded ? fmt(bfrac, 1) : std::string("-"),
               sharded ? fmt(nr.r.barrier_us_per_round, 0) : std::string("-"),
               sharded ? fmt(nr.r.boundary_bytes_per_round, 0)
                       : std::string("-"),
               fmt(seq.ms / std::max(nr.r.ms, 1e-9), 2) + "x"});
  }
  t.print(std::cout);

  // Parity gates: every sharded configuration must agree with the
  // sequential engine on every observable — these run on every invocation
  // and are the reason this bench doubles as a stress test in CI.
  for (const auto& nr : results) {
    if (nr.shards == 0) continue;
    check_internal(nr.r.total_messages == seq.total_messages &&
                       nr.r.total_bits == seq.total_bits,
                   nr.name + " disagrees with the sequential engine on "
                             "message/bit totals");
    check_internal(nr.r.rounds == seq.rounds &&
                       nr.r.quiesced == seq.quiesced,
                   nr.name + " disagrees with the sequential engine on "
                             "rounds/quiescence");
    check_internal(nr.r.checksum == seq.checksum,
                   nr.name + " harvested a different inbox checksum than "
                             "the sequential engine");
  }
  check_internal(seq.total_messages > 0, "workload delivered no messages");
  if (check) {
    // Zero-allocation gates. Worker-side violations already failed inside
    // run_sharded; this pins the coordinator's barrier loop.
    for (const auto& nr : results) {
      if (nr.shards == 0) continue;
      check_internal(nr.r.timed_allocs == 0,
                     nr.name + " coordinator allocated " +
                         std::to_string(nr.r.timed_allocs) +
                         " time(s) during the timed steady-state reps");
    }
    std::cout << "\ncheck mode: parity + zero-alloc assertions passed for "
                 "every worker count\n";
  }
  return 0;
}
