// Serve-layer load generator: quantifies what keeping graphs resident in
// qcongestd buys over the one-shot CLI lifecycle.
//
// Baseline ("per-invocation"): every diameter answer pays the full
// load_graph_file + EccEngine construction + n-BFS eccentricity sweep —
// the cost of `qcongest diameter @file` from a cold process, measured
// in-process so process spawn/teardown is *excluded* (the gap below is
// therefore an underestimate of the real CLI gap).
//
// Resident: an in-process Server on a Unix socket with the dataset loaded
// and the eccentricity table forced once; N concurrent clients then issue
// cache-hit queries (diameter / radius / ecc) through the full protocol —
// framing, admission, thread-pool dispatch — and per-request latencies are
// aggregated into p50/p99 and throughput.
//
// Gates (check_internal, so CI fails loudly if they regress):
//   * the served diameter is bit-identical to a direct EccEngine's,
//   * the resident phase does zero BFS work (bfs_runs frozen),
//   * per-invocation median >= 10x the resident p50.
//
// Modes: --quick (fewer requests; ctest runs it), default.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "graph/ecc_engine.hpp"
#include "graph/io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"

using namespace qc;
using namespace qc::bench;

namespace {

namespace fs = std::filesystem;

double ms_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::milli>(dt).count();
}

struct ResidentPhase {
  double p50_us = 0;
  double p99_us = 0;
  double qps = 0;
  std::uint64_t requests = 0;
};

// One client connection issuing `requests` cache-hit queries, cycling
// diameter / radius / ecc(v); per-request latencies land in `lat_us`.
void client_loop(const std::string& endpoint, const std::string& key,
                 std::uint32_t n, int requests, int stride,
                 std::vector<double>& lat_us) {
  auto client = serve::Client::connect(endpoint);
  lat_us.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    serve::Request req;
    req.path = key;
    switch (i % 3) {
      case 0: req.op = serve::Op::kDiameter; break;
      case 1: req.op = serve::Op::kRadius; break;
      default:
        req.op = serve::Op::kEcc;
        req.arg = static_cast<std::uint64_t>((i * stride) % n);
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto resp = client.call_ok(req);
    lat_us.push_back(ms_since(t0) * 1000.0);
    check_internal(resp.status == serve::Status::kOk,
                   "bench_serve: resident query failed");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(
      argc, argv, {"dataset", "clients", "requests"});
  Cli cli(argc, argv);
  const std::string dataset =
      cli.get_string("dataset", std::string(QC_DATA_DIR) +
                                    "/synth-p2p-10k.qcg");
  const int clients =
      static_cast<int>(cli.get_int_in("clients", 4, 1, 256));
  const int requests_per_client = static_cast<int>(cli.get_int_in(
      "requests", opt.quick ? 250 : 2500, 1, 1 << 24));

  banner("Resident-graph serving vs per-invocation lifecycle",
         "qcongestd keeps the graph and its compute-once eccentricity "
         "table in memory;\nevery query after the first skips load + "
         "EccEngine + n-BFS sweep entirely");

  // --- Baseline: the full per-invocation lifecycle, median of trials. ---
  std::vector<double> cold_ms;
  std::uint32_t diameter_direct = 0;
  std::uint32_t n = 0;
  std::uint64_t m = 0;
  for (int t = 0; t < std::max(2, opt.trials); ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto g = graph::load_graph_file(dataset);
    graph::EccEngine engine(g);
    diameter_direct = engine.diameter();
    cold_ms.push_back(ms_since(t0));
    n = g.n();
    m = g.m();
  }
  const double cold_median_ms = quantile(cold_ms, 0.5);
  std::cout << "per-invocation: load + engine + sweep = "
            << fmt(cold_median_ms, 1) << " ms median over "
            << cold_ms.size() << " runs (diameter " << diameter_direct
            << ", n = " << n << ", m = " << m << ")\n";

  // --- Resident: in-process server, one warm-up, then the query storm. ---
  const auto sock =
      (fs::temp_directory_path() /
       ("qc_bench_serve_" + std::to_string(static_cast<long long>(
                                std::chrono::steady_clock::now()
                                    .time_since_epoch()
                                    .count())) +
        ".sock"))
          .string();
  serve::ServerOptions sopts;
  sopts.unix_path = sock;
  serve::Server server(sopts);
  server.start();
  const std::string endpoint = "unix:" + sock;

  double load_ms = 0, first_query_ms = 0;
  {
    auto warm = serve::Client::connect(endpoint);
    auto t0 = std::chrono::steady_clock::now();
    const auto loaded = warm.call_ok({serve::Op::kLoad, dataset, 0});
    load_ms = ms_since(t0);
    check_internal(loaded.value == n, "bench_serve: server n mismatch");
    t0 = std::chrono::steady_clock::now();
    const auto first = warm.call_ok({serve::Op::kDiameter, dataset, 0});
    first_query_ms = ms_since(t0);
    check_internal(first.value == diameter_direct,
                   "bench_serve: served diameter differs from the direct "
                   "EccEngine answer");
  }
  const auto resident = server.registry().get(dataset);
  check_internal(resident != nullptr, "bench_serve: graph not resident");
  const std::uint64_t bfs_before = resident->engine().bfs_runs();

  std::vector<std::vector<double>> lat(static_cast<std::size_t>(clients));
  const auto storm_t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(client_loop, endpoint, dataset, n,
                           requests_per_client, 2 * c + 1,
                           std::ref(lat[static_cast<std::size_t>(c)]));
    }
    for (auto& th : threads) th.join();
  }
  const double storm_ms = ms_since(storm_t0);
  check_internal(resident->engine().bfs_runs() == bfs_before,
                 "bench_serve: resident queries ran BFS work");

  ResidentPhase phase;
  std::vector<double> all;
  for (auto& per_client : lat) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  phase.requests = all.size();
  phase.qps = static_cast<double>(phase.requests) / (storm_ms / 1000.0);
  std::vector<double> copy = all;
  phase.p50_us = quantile(std::move(copy), 0.5);
  phase.p99_us = quantile(std::move(all), 0.99);
  server.stop();
  std::error_code ec;
  fs::remove(sock, ec);

  const double speedup = cold_median_ms * 1000.0 / phase.p50_us;
  check_internal(speedup >= 10.0,
                 "bench_serve: resident p50 is not >= 10x faster than the "
                 "per-invocation lifecycle");

  Table t({"phase", "p50", "p99", "qps", "notes"});
  t.add_row({"per-invocation", fmt(cold_median_ms, 1) + " ms", "-", "-",
             "load + engine + n-BFS sweep, every time"});
  t.add_row({"resident load", fmt(load_ms, 1) + " ms", "-", "-",
             "once per graph (read + varint decode)"});
  t.add_row({"first query", fmt(first_query_ms, 1) + " ms", "-", "-",
             "pays the compute-once sweep"});
  t.add_row({"resident query", fmt(phase.p50_us, 1) + " us",
             fmt(phase.p99_us, 1) + " us", fmt(phase.qps, 0),
             std::to_string(clients) + " clients, 0 BFS runs"});
  t.print(std::cout);
  std::cout << "\nspeedup: resident p50 is " << fmt(speedup, 0)
            << "x faster than per-invocation (gate: >= 10x)\n";
  return 0;
}
