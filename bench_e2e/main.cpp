// bench_e2e: one end-to-end, layer-attributed benchmark of the three
// north-star paths — the quantum diameter pipeline, the qcongestd serve
// path and the sharded CONGEST engine.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--git-sha SHA] [--wrong-reference]
//
// Runs from the checkout root (it reads data/). Prints a side report line
// (provenance plus every end-to-end quantity that applies to the
// workload) and, last, the result object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// carrying the end-to-end metrics with --trace 0 and the per-layer metrics
// of a traced run with --trace 1. bench_e2e/README.md documents the
// workloads and metrics; bench_e2e/run.py builds and drives this binary.

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "e2e.hpp"
#include "util/metrics.hpp"
#include "workloads.hpp"

namespace {

using e2e::Options;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "bench_e2e: " << why
            << "\nusage: bench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA] [--wrong-reference]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--wrong-reference") {
      opt.wrong_reference = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      kv[a.substr(2)] = argv[++i];
    } else {
      usage("unexpected argument " + a);
    }
  }
  try {
    for (const auto& [k, v] : kv) {
      if (k == "workload") opt.workload = v;
      else if (k == "seed") opt.seed = std::stoull(v);
      else if (k == "seconds") opt.seconds = std::stod(v);
      else if (k == "trace") opt.trace = std::stoi(v) != 0;
      else if (k == "git-sha") opt.git_sha = v;
      else usage("unknown flag --" + k);
    }
  } catch (const std::logic_error&) {
    usage("malformed flag value");
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

e2e::LoopStats run_workload(e2e::Env& env) {
  const std::string& w = env.opt.workload;
  if (w == "fig2-sim-1024") return e2e::run_fig2(env, 1024, /*armed=*/false);
  if (w == "fig2-metrics-512") return e2e::run_fig2(env, 512, /*armed=*/true);
  if (w == "dataset-10k-direct") return e2e::run_dataset_direct(env);
  if (w == "serve-10k-mix") return e2e::run_serve_mix(env);
  usage("unknown workload " + w);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    if (!std::filesystem::exists(e2e::kDataset)) {
      throw std::runtime_error(std::string("missing input ") + e2e::kDataset +
                               " (run from the checkout root)");
    }
    std::filesystem::create_directories(opt.scratch);
    e2e::Tracer tracer(opt.trace);
    e2e::RunResult res;
    e2e::Env env{opt, tracer, res};

    const e2e::LoopStats loop = run_workload(env);
    if (qc::metrics::enabled()) {
      throw std::runtime_error("qc::metrics left armed after the workload");
    }
    if (opt.trace) {
      e2e::report_trace(res, tracer, loop);
      e2e::run_probes(env);
      tracer.write_jsonl(opt.scratch + "/spans-" + opt.workload + ".jsonl");
    }

    const double attempted = static_cast<double>(res.attempted());
    res.report.set("fail_ratio",
                   attempted > 0 ? static_cast<double>(res.failed()) / attempted
                                 : 0,
                   "ratio");
    for (const auto& why : res.failures()) {
      std::cerr << "bench_e2e: failed check: " << why << "\n";
    }
    std::cout << "{\"report\": {\"workload\": \"" << opt.workload
              << "\", \"seed\": " << opt.seed
              << ", \"trace\": " << (opt.trace ? 1 : 0)
              << ", \"host_cpus\": " << std::thread::hardware_concurrency()
              << ", \"build_type\": \"" << E2E_BUILD_TYPE
              << "\", \"compiler\": \"" << E2E_COMPILER
              << "\", \"git_sha\": \"" << opt.git_sha
              << "\", \"metrics\": " << res.report.json() << "}}\n";
    std::cout << "{\"correct\": " << (res.failed() == 0 ? "true" : "false")
              << ", \"attempted\": " << res.attempted()
              << ", \"failed\": " << res.failed() << ", \"metrics\": "
              << (opt.trace ? res.layer : res.e2e).json() << "}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
