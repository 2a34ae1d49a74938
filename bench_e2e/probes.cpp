// Per-layer probes of a traced run. Each probe calls one layer through its
// public functions on fixed inputs derived from the run seed, inside a
// span per call, and turns the span durations (plus the counts the calls
// return) into the per-layer metrics of BENCHMARK.json. The inputs are
// the workloads' own: the dataset, the Figure 2 graphs, the serve mix.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algos/bfs_tree.hpp"
#include "algos/evaluation.hpp"
#include "algos/leader_election.hpp"
#include "congest/network.hpp"
#include "congest/shard/sharded_network.hpp"
#include "core/branch_evaluator.hpp"
#include "core/quantum_diameter.hpp"
#include "flood.hpp"
#include "graph/ecc_engine.hpp"
#include "graph/io.hpp"
#include "qsim/amplitude_vector.hpp"
#include "qsim/search.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/bits.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace qc;

namespace {

/// Runs `f` inside a root span named `name`; returns its wall time in ms.
template <typename F>
double timed(Tracer& tr, std::string_view name, F&& f) {
  Span s(tr, name, /*root=*/true);
  f();
  return s.end();
}

template <typename F>
double median_ms(Tracer& tr, std::string_view name, int reps, F&& f) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) ms.push_back(timed(tr, name, f));
  return median(std::move(ms));
}

// -- congest/shard: the W=4 flood against the sequential engine -------------

void probe_shard(Env& env, const graph::Graph& g) {
  constexpr std::uint32_t kShards = 4, kWarm = 8, kRounds = 16;
  constexpr int kReps = 3;
  Tracer& tr = env.tracer;
  const std::uint64_t salt = env.opt.seed & 0xFFFF;
  const auto factory = [salt](graph::NodeId) { return make_flood(salt); };
  congest::NetworkConfig net;
  net.seed = env.opt.seed;

  std::unique_ptr<congest::shard::ShardedNetwork> sharded;
  const double spawn_ms = timed(tr, "shard.ShardedNetwork::init_programs", [&] {
    congest::shard::ShardConfig cfg;
    cfg.shards = kShards;
    cfg.net = net;
    sharded = std::make_unique<congest::shard::ShardedNetwork>(g, cfg);
    sharded->init_programs(factory);
    sharded->run_rounds(0);  // returns once every worker ran on_start
  });
  sharded->run_rounds(kWarm);
  const double shard_ms = median_ms(tr, "shard.ShardedNetwork::run_rounds",
                                    kReps, [&] { sharded->run_rounds(kRounds); });
  const auto perf = sharded->perf();
  const FloodTotals sharded_totals = flood_totals(*sharded);
  sharded->shutdown();

  congest::Network seq(g, net);
  seq.init_programs(factory);
  seq.run_rounds(kWarm);
  const double seq_ms = median_ms(tr, "congest.Network::run_rounds", kReps,
                                  [&] { seq.run_rounds(kRounds); });
  env.res.record(flood_totals(seq) == sharded_totals,
                 "shard probe: sharded flood differs from sequential");

  const double per_round = 1.0 / static_cast<double>(perf.rounds);
  env.res.layer.set("shard.spawn_ms", spawn_ms, "ms");
  env.res.layer.set("shard.round_us", shard_ms * 1e3 / kRounds, "us");
  env.res.layer.set("shard.barrier_wait_us_per_round",
                    static_cast<double>(perf.barrier_wait_us) * per_round, "us");
  env.res.layer.set("shard.boundary_bytes_per_round",
                    static_cast<double>(perf.boundary_bytes) * per_round, "B");
  env.res.layer.set("congest.seq_flood_round_us", seq_ms * 1e3 / kRounds, "us");
  env.res.layer.set("shard.speedup_vs_seq", seq_ms / shard_ms, "x");
}

// -- graph: load and the eccentricity sweep ---------------------------------

std::vector<std::uint32_t> probe_graph(Env& env, const graph::Graph& g) {
  Tracer& tr = env.tracer;
  env.res.layer.set(
      "graph.load_ms",
      median_ms(tr, "graph.load_graph_file", 5,
                [] { (void)graph::load_graph_file(kDataset); }),
      "ms");
  std::vector<std::uint32_t> ecc;
  env.res.layer.set("graph.ecc_sweep_ms",
                    median_ms(tr, "graph.EccEngine::all", 3, [&] {
                      const graph::EccEngine engine(g);
                      ecc = engine.all();
                    }),
                    "ms");
  return ecc;
}

// -- algos: the classical initialization on the dataset ----------------------

void probe_init(Env& env, const graph::Graph& g) {
  Tracer& tr = env.tracer;
  const congest::NetworkConfig net;
  const std::uint32_t id_bits = qc::bit_width_for(g.n()) + 1;
  std::uint64_t messages = 0;
  const double ms = median_ms(tr, "algos.initialization", 3, [&] {
    std::optional<algos::ElectionOutcome> election;
    std::optional<algos::EccOutcome> ecc;
    {
      Span s(tr, "algos.elect_leader");
      election = algos::elect_leader(g, net);
    }
    {
      Span s(tr, "algos.compute_eccentricity");
      ecc = algos::compute_eccentricity(g, election->leader, net);
    }
    messages = election->stats.messages + ecc->stats.messages;
    for (const std::uint64_t value : {std::uint64_t{ecc->ecc}, std::uint64_t{0}}) {
      Span s(tr, "algos.broadcast_from_root");
      messages +=
          algos::broadcast_from_root(g, ecc->tree, value, id_bits, net)
              .stats.messages;
    }
  });
  env.res.layer.set("algos.init_ms", ms, "ms");
  env.res.layer.set("algos.init_messages", static_cast<double>(messages),
                    "count");
}

// -- algos + congest: Figure 2 branches on the fig2-sim-1024 graph ----------

void probe_eval(Env& env) {
  constexpr std::uint32_t n = 1024, kSample = 16;
  Tracer& tr = env.tracer;
  const auto g = fig2_graph(n, fig2_graph_seed(n, env.opt.seed));
  const congest::NetworkConfig net;
  const auto leader = algos::elect_leader(g, net).leader;
  const auto ecc = algos::compute_eccentricity(g, leader, net);

  std::vector<double> ms;
  std::uint64_t messages = 0, rounds = 0;
  for (std::uint32_t k = 0; k < kSample; ++k) {
    const graph::NodeId u0 = k * (n / kSample);
    ms.push_back(timed(tr, "algos.evaluate_window_ecc", [&] {
      const auto out =
          algos::evaluate_window_ecc(g, ecc.tree, u0, 2 * ecc.ecc, net);
      messages += out.stats.messages;
      rounds += out.stats.rounds;
    }));
  }
  double total_ms = 0;
  for (const double x : ms) total_ms += x;
  env.res.layer.set("algos.eval_ms_per_branch", median(ms), "ms");
  env.res.layer.set("algos.eval_messages",
                    static_cast<double>(messages) / kSample, "count");
  env.res.layer.set("algos.eval_rounds", static_cast<double>(rounds) / kSample,
                    "rounds");
  env.res.layer.set("congest.ns_per_message",
                    total_ms * 1e6 / static_cast<double>(messages), "ns");
  env.res.layer.set("congest.us_per_round",
                    total_ms * 1e3 / static_cast<double>(rounds), "us");
  env.res.layer.set("congest.slot_occupancy",
                    static_cast<double>(messages) /
                        (static_cast<double>(rounds) * 2.0 *
                         static_cast<double>(g.m())),
                    "ratio");
}

// -- core + util/metrics: the fig2-metrics-512 solve three ways -------------

void probe_solve(Env& env) {
  constexpr std::uint32_t n = 512;
  Tracer& tr = env.tracer;
  const auto g = fig2_graph(n, fig2_graph_seed(n, env.opt.seed));
  core::QuantumConfig cfg;
  cfg.seed = mix_seed(env.opt.seed, 0);
  const auto solve = [&](const char* name, std::uint32_t threads,
                         const std::string& export_path) {
    core::QuantumDiameterReport rep;
    cfg.branch_threads = threads;
    const double ms = timed(tr, name, [&] {
      metrics::ScopedExport session(export_path);
      rep = core::quantum_diameter_exact(g, cfg);
    });
    env.res.record(!rep.subroutine_failed && rep.diameter == kFig2Diameter,
                   "solve probe: wrong diameter");
    return std::make_pair(ms, rep);
  };
  const auto [default_ms, rep] = solve("core.quantum_diameter_exact", 0, "");
  const double serial_ms =
      solve("core.quantum_diameter_exact.serial", 1, "").first;
  const std::string export_path = env.opt.scratch + "/metrics-probe-" +
                                  std::to_string(::getpid()) + ".jsonl";
  const double armed_ms =
      solve("metrics.armed_quantum_diameter_exact", 0, export_path).first;
  std::filesystem::remove(export_path);

  env.res.layer.set("core.solve_ms", default_ms, "ms");
  env.res.layer.set("core.fanout_speedup", serial_ms / default_ms, "x");
  env.res.layer.set("core.grover_iterations",
                    static_cast<double>(rep.costs.grover_iterations), "count");
  env.res.layer.set("core.distinct_branches",
                    static_cast<double>(rep.distinct_branch_evaluations),
                    "count");
  env.res.layer.set("metrics.armed_ratio", armed_ms / default_ms, "x");
}

// -- core: a memo hit in BranchEvaluator -------------------------------------

void probe_memo(Env& env, const std::vector<std::uint32_t>& ecc) {
  constexpr std::size_t kLookups = 1u << 20;
  const std::size_t n = ecc.size();
  core::BranchEvaluator<std::int64_t> memo(
      [&](std::size_t x) { return static_cast<std::int64_t>(ecc[x]); }, 1);
  memo.prefetch_all(n);
  std::int64_t sum = 0;
  const double ms = timed(env.tracer, "core.BranchEvaluator::operator()", [&] {
    for (std::size_t i = 0; i < kLookups; ++i) sum += memo((i * 7919) % n);
  });
  std::int64_t expect = 0;
  for (std::size_t i = 0; i < kLookups; ++i) expect += ecc[(i * 7919) % n];
  env.res.record(sum == expect, "memo probe: wrong lookups");
  env.res.layer.set("core.memo_lookup_ns", ms * 1e6 / kLookups, "ns");
}

// -- qsim: maximum finding over the dataset's eccentricities -----------------

void probe_qsim(Env& env, const std::vector<std::uint32_t>& ecc) {
  const std::size_t n = ecc.size();
  const auto setup = qsim::AmplitudeVector::uniform(n);
  const auto f = [&](std::size_t x) { return static_cast<std::int64_t>(ecc[x]); };
  std::uint32_t max_ecc = 0;
  for (const auto e : ecc) max_ecc = std::max(max_ecc, e);
  qsim::MaximizationResult result;
  const double ms = median_ms(env.tracer, "qsim.quantum_maximize", 3, [&] {
    Rng rng(mix_seed(env.opt.seed, 7));
    result = qsim::quantum_maximize(setup, f, 1.0 / static_cast<double>(n),
                                    0.01, rng);
  });
  env.res.record(result.value == max_ecc, "qsim probe: wrong maximum");
  env.res.layer.set("qsim.maximize_ms", ms, "ms");
  env.res.layer.set("qsim.ns_per_amplitude",
                    ms * 1e6 /
                        (static_cast<double>(result.costs.grover_iterations) *
                         static_cast<double>(n)),
                    "ns");
}

// -- serve: execute without a socket, the transport, the codec ---------------

void probe_serve(Env& env, const std::vector<std::uint32_t>& ecc) {
  constexpr int kHits = 3000, kSlow = 40, kCodec = 20000;
  Tracer& tr = env.tracer;
  const auto [min_it, max_it] = std::minmax_element(ecc.begin(), ecc.end());
  const std::uint32_t radius = *min_it, diameter = *max_it;
  const auto expect = [&](const serve::Request& req) -> std::uint64_t {
    if (req.op == serve::Op::kDiameter) return diameter;
    if (req.op == serve::Op::kRadius) return radius;
    return ecc[req.arg];
  };
  serve::ServerOptions sopts;
  sopts.unix_path = env.opt.scratch + "/serve-probe-" +
                    std::to_string(::getpid()) + ".sock";
  serve::Server server(sopts);
  server.start();

  const auto execute = [&](const serve::Request& req) {
    serve::Response resp;
    const double ms =
        timed(tr, "serve.Server::execute", [&] { resp = server.execute(req); });
    if (resp.status != serve::Status::kOk) ++env.serve_errors;
    return std::make_pair(ms * 1e3, resp);
  };
  execute({serve::Op::kLoad, kDataset, 0});
  execute({serve::Op::kDiameter, kDataset, 0});  // the compute-once sweep

  Rng rng(mix_seed(env.opt.seed, 0x5e));
  const auto hit = [&] {
    const std::uint64_t k = rng.next_below(3);
    if (k == 0) return serve::Request{serve::Op::kDiameter, kDataset, 0};
    if (k == 1) return serve::Request{serve::Op::kRadius, kDataset, 0};
    return serve::Request{serve::Op::kEcc, kDataset, rng.next_below(ecc.size())};
  };
  std::vector<double> hit_us, approx_us, write_us, client_us;
  bool ok = true;
  for (int i = 0; i < kHits; ++i) {
    const auto req = hit();
    const auto [us, resp] = execute(req);
    hit_us.push_back(us);
    ok &= resp.value == expect(req);
  }
  for (int i = 0; i < kSlow; ++i) {
    const auto [us, resp] =
        execute({serve::Op::kApprox, kDataset, rng.next_below(ecc.size())});
    approx_us.push_back(us);
    ok &= resp.value <= diameter && diameter <= resp.aux;
  }
  for (int i = 0; i < kSlow; ++i) {
    const serve::Op op = i % 2 == 0 ? serve::Op::kLoad : serve::Op::kUnload;
    write_us.push_back(execute({op, kSmallSnap, 0}).first);
  }
  {
    auto client = serve::Client::connect("unix:" + sopts.unix_path);
    for (int i = 0; i < kHits; ++i) {
      const auto req = hit();
      serve::Response resp;
      client_us.push_back(
          timed(tr, "serve.Client::call", [&] { resp = client.call(req); }) *
          1e3);
      ok &= resp.status == serve::Status::kOk && resp.value == expect(req);
    }
  }
  env.res.record(ok, "serve probe: wrong response");

  bool codec_ok = true;
  const double codec_ms = timed(tr, "serve.codec", [&] {
    for (std::uint64_t i = 0; i < kCodec; ++i) {
      const auto rq = serve::encode_request({serve::Op::kEcc, kDataset, i});
      const auto back = serve::decode_request(rq);
      const auto rs =
          serve::encode_response({serve::Status::kOk, back.arg, 0, ""});
      codec_ok &= serve::decode_response(rs).value == i;
    }
  });
  env.res.record(codec_ok, "serve probe: codec round trip changed a value");

  env.serve_rejected += server.stats().rejected.load();
  env.serve_errors += server.stats().errors.load();
  server.stop();

  const double exec_p50 = median(hit_us);
  env.res.layer.set("serve.execute_us.hit", exec_p50, "us");
  env.res.layer.set("serve.execute_us.approx", median(approx_us), "us");
  env.res.layer.set("serve.execute_us.write", median(write_us), "us");
  env.res.layer.set("serve.transport_us", median(client_us) - exec_p50, "us");
  env.res.layer.set("serve.codec_ns", codec_ms * 1e6 / kCodec, "ns");
  env.res.layer.set("serve.rejected", static_cast<double>(env.serve_rejected),
                    "count");
  env.res.layer.set("serve.errors", static_cast<double>(env.serve_errors),
                    "count");
}

}  // namespace

void run_probes(Env& env) {
  const auto g = graph::load_graph_file(kDataset);
  // The shard probe forks its workers, so it runs while this process has
  // no other threads alive.
  probe_shard(env, g);
  const auto ecc = probe_graph(env, g);
  probe_init(env, g);
  probe_eval(env);
  probe_solve(env);
  probe_memo(env, ecc);
  probe_qsim(env, ecc);
  probe_serve(env, ecc);
}

}  // namespace e2e
