// The CONGEST delivery hot path (SBO messages, precomputed reverse ports,
// send arenas with inbox views, incremental quiescence) on the flooding
// workload: every node broadcasts a two-field message every round, so
// every directed edge carries one delivery per round — the densest
// traffic the model allows.
//
// Fault-free runs are validated against a closed-form reference computed
// from the graph alone: message and bit totals, and an order-sensitive
// per-node inbox checksum replayed from the adjacency in port order.
// `--check` additionally turns the zero-allocation steady state into a hard
// failure (CI runs it under ASan+UBSan); `--out=FILE` emits the JSON
// summary whose `configs` block seeds BENCH_net.json at the repo root.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "congest/network.hpp"
#include "congest/observer.hpp"
#include "util/alloc_probe.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

QC_INSTALL_ALLOC_PROBE();

using namespace qc;
using namespace qc::bench;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::milli>(dt).count();
}

/// Order-sensitive per-node hash of delivered (port, fields); summing the
/// per-node hashes gives a workload checksum that every fault-free run must
/// reproduce exactly.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// Flooding program: broadcast (id, round) each round, hash everything
/// heard. memory_bits() stays 0, so the network's audit sweep disarms after
/// round 1 — exactly the non-reporting common case the skip optimization
/// targets.
class Flood final : public congest::NodeProgram {
 public:
  void on_start(congest::NodeContext& ctx) override { blast(ctx); }

  void on_round(congest::NodeContext& ctx) override {
    for (const auto& in : ctx.inbox()) {
      sum_ = mix(mix(mix(sum_, in.port), in.msg.field(0)), in.msg.field(1));
    }
    blast(ctx);
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

/// Flood's checksum after `rounds` rounds, replayed from the adjacency: in
/// round r node w hears, on each port p in order, (neighbor id, r - 1).
std::uint64_t flood_checksum(const graph::Graph& g, std::uint32_t rounds) {
  std::uint64_t total = 0;
  for (graph::NodeId w = 0; w < g.n(); ++w) {
    const auto nb = g.neighbors(w);
    std::uint64_t h = 0;
    for (std::uint32_t r = 1; r <= rounds; ++r) {
      for (std::uint32_t p = 0; p < nb.size(); ++p) {
        h = mix(mix(mix(h, p), nb[p]), (r - 1) & 0xFFFFu);
      }
    }
    total += h;
  }
  return total;
}

struct Result {
  double ms = 0.0;               ///< best (min) timed repetition
  std::uint64_t messages = 0;    ///< deliveries in that repetition
  std::uint64_t total_messages = 0;  ///< deliveries across all repetitions
  std::uint64_t total_bits = 0;
  std::uint64_t checksum = 0;
  std::uint64_t allocs = 0;  ///< heap allocations across all timed phases

  double msgs_per_sec() const {
    return static_cast<double>(messages) / std::max(ms, 1e-9) * 1e3;
  }
  double ns_per_delivery() const {
    return ms * 1e6 / static_cast<double>(std::max<std::uint64_t>(messages, 1));
  }
  double allocs_per_delivery() const {
    return static_cast<double>(allocs) /
           static_cast<double>(std::max<std::uint64_t>(total_messages, 1));
  }
};

// Wall-clock noise is the enemy of a committed number: each config runs
// `reps` timed phases over one warmed-up network and reports the best
// (minimum-time) phase, while the parity fields accumulate over the whole
// run so the correctness gates still cover every executed round.
Result run_flood(const graph::Graph& g, bool with_observer, bool with_fault,
                 std::uint64_t seed, std::uint32_t warm, std::uint32_t rounds,
                 std::uint32_t reps) {
  congest::NetworkConfig cfg;
  cfg.seed = seed;
  auto observed = std::make_shared<std::uint64_t>(0);
  if (with_observer) {
    cfg.observer = std::make_shared<congest::CallbackObserver>(
        [observed](graph::NodeId, graph::NodeId, const congest::Message&,
                   std::uint32_t) { ++*observed; });
  }
  if (with_fault) {
    cfg.fault.drop_probability = 0.01;
    cfg.fault.corrupt_probability = 0.005;
    cfg.fault.seed = 99;
  }
  congest::Network net(g, cfg);
  net.init_programs(
      [](graph::NodeId) { return std::make_unique<Flood>(); });
  net.run_rounds(warm);
  Result r;
  const std::uint64_t a0 = qc::alloc_probe_count().load();
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
  }
  r.allocs = qc::alloc_probe_count().load() - a0;
  for (graph::NodeId v = 0; v < g.n(); ++v) {
    r.checksum += net.program_as<Flood>(v).sum();
  }
  if (with_observer) {
    check_internal(*observed == net.stats().messages,
                   "observer saw a different delivery count than the stats");
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt =
      BenchOptions::parse(argc, argv, {"out", "n", "d", "rounds", "check"});
  Cli cli(argc, argv);
  const auto n =
      static_cast<std::uint32_t>(cli.get_int("n", opt.quick ? 192 : 512));
  const auto d =
      static_cast<std::uint32_t>(cli.get_int("d", opt.quick ? 12 : 32));
  const auto rounds = static_cast<std::uint32_t>(
      cli.get_int("rounds", opt.quick ? 60 : 240));
  const bool check = cli.get_bool("check", false);
  const std::string out = cli.get_string("out", "");
  const std::uint32_t warm = 8;
  const std::uint32_t reps = opt.quick ? 3 : 5;

  banner("CONGEST delivery hot path",
         "flooding workload: one delivery per directed edge per round; "
         "fault-free runs checked against a closed-form reference");

  const auto g = workload(n, d, opt.seed);

  struct NamedResult {
    const char* name;
    Result r;
  };
  const std::vector<NamedResult> results = {
      {"seq", run_flood(g, false, false, opt.seed, warm, rounds, reps)},
      {"seq_observer", run_flood(g, true, false, opt.seed, warm, rounds, reps)},
      {"seq_fault", run_flood(g, false, true, opt.seed, warm, rounds, reps)},
  };

  Table t({"config", "ms", "messages", "msgs/sec", "ns/delivery",
           "allocs/delivery"});
  for (const auto& [name, r] : results) {
    t.add_row({name, fmt(r.ms, 1), fmt(r.messages), fmt(r.msgs_per_sec(), 0),
               fmt(r.ns_per_delivery(), 1), fmt(r.allocs_per_delivery(), 4)});
  }
  t.print(std::cout);

  // Correctness gates, checked on every run: each fault-free config must
  // match the closed-form reference — one delivery per directed edge per
  // round, id_bits + 16 bits each, and the replayed inbox checksum. --check
  // additionally pins the zero-allocation steady state.
  const std::uint64_t ref_messages =
      std::uint64_t{reps} * rounds * 2 * g.m();
  const std::uint64_t ref_bits = ref_messages * (qc::bit_width_for(n) + 16);
  const std::uint64_t ref_checksum = flood_checksum(g, warm + reps * rounds);
  const Result& seq = results[0].r;
  const Result& seq_observer = results[1].r;
  const Result& seq_fault = results[2].r;
  for (const Result* r : {&seq, &seq_observer}) {
    check_internal(r->total_messages == ref_messages &&
                       r->total_bits == ref_bits &&
                       r->checksum == ref_checksum,
                   "fault-free delivery disagrees with the closed-form "
                   "reference");
  }
  check_internal(seq_fault.total_messages < seq.total_messages,
                 "fault plan dropped no messages");
  std::cout << "\nclosed-form parity: " << ref_messages << " messages, "
            << ref_bits << " bits, checksum " << ref_checksum << "\n";
  if (check) {
    check_internal(seq.allocs == 0,
                   "sequential no-fault delivery allocated at steady state");
    std::cout << "check mode: parity + zero-allocation assertions passed\n";
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"network_delivery\",\n"
       << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n"
       << "  \"host_cpus\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"build_type\": \"" << QC_BUILD_TYPE << "\",\n"
       << "  \"n\": " << n << ",\n"
       << "  \"d\": " << d << ",\n"
       << "  \"edges\": " << g.m() << ",\n"
       << "  \"rounds\": " << rounds << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"warmup_rounds\": " << warm << ",\n"
       << "  \"bandwidth_bits\": " << congest_bandwidth_bits(n) << ",\n"
       << "  \"configs\": {\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& [name, r] = results[i];
    json << "    \"" << name << "\": {\"ms\": " << fmt(r.ms, 3)
         << ", \"messages\": " << r.messages
         << ", \"msgs_per_sec\": " << fmt(r.msgs_per_sec(), 0)
         << ", \"ns_per_delivery\": " << fmt(r.ns_per_delivery(), 1)
         << ", \"allocs_per_delivery\": " << fmt(r.allocs_per_delivery(), 4)
         << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  },\n"
       << "  \"seq_steady_state_allocs\": " << seq.allocs << ",\n"
       << "  \"results_equal\": true\n"
       << "}\n";
  std::cout << "\n" << json.str();
  if (!out.empty()) {
    std::ofstream f(out);
    require(f.good(), "bench_network: cannot open --out file " + out);
    f << json.str();
    std::cout << "wrote " << out << "\n";
  }
  return 0;
}
