#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "congest/network.hpp"
#include "congest/shard/partition.hpp"

namespace qc::congest::shard {

/// Everything a forked worker needs to reach its coordinator: the socket
/// every frame travels on and which shard it serves.
struct WorkerLink {
  int fd = -1;
  std::uint32_t shard = 0;
  bool collect_events = false;
  /// When nonzero, the worker snapshots the alloc probe after this round
  /// and fails the run if any later round allocates (a harvest in between
  /// re-arms). Only meaningful in binaries that install the probe.
  std::uint32_t verify_zero_alloc_from_round = 0;
};

/// Body of a forked worker process (internal to the shard backend; exposed
/// for tests). Builds a full Network replica of `g` with `net_cfg` —
/// inherited by value through fork, so every process constructs bit-
/// identical state — instantiates `make(v)` programs for the nodes shard
/// `link.shard` owns (inert placeholders elsewhere), and serves the
/// coordinator's frames on its socket until a shutdown frame or EOF
/// (coordinator gone), both of which return 0. Any failure is reported
/// back as an error frame and returns 1; the function never throws — the
/// caller _exit()s with the returned code, skipping atexit machinery the
/// forked child must not run.
int run_worker(
    const WorkerLink& link, const graph::Graph& g,
    const NetworkConfig& net_cfg, const ShardAssignment& asn,
    const std::function<std::unique_ptr<NodeProgram>(NodeId)>& make) noexcept;

}  // namespace qc::congest::shard
