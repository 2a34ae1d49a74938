#include "congest/shard/sharded_network.hpp"

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "congest/shard/worker.hpp"
#include "serve/protocol.hpp"
#include "util/bits.hpp"
#include "util/metrics.hpp"

namespace qc::congest::shard {

namespace {

/// How long one futex sleep at the barrier may last before the coordinator
/// re-checks worker liveness over the sockets. Bounds the time a silently
/// killed worker can stall a phase.
constexpr int kBarrierWaitSliceMs = 100;

/// Closes every fd of the freshly forked child except stdio and `keep`:
/// the child inherits the parent's whole fd table (other workers'
/// coordinator-side sockets, listening sockets, open logs...), and a held
/// duplicate of another worker's socket would defeat EOF-based teardown.
/// mmap'ed graph payloads and the shm arena stay valid — a mapping
/// outlives its fd (and the arena is anonymous, it never had one).
void close_other_fds(int keep) {
  std::vector<int> to_close;
  if (DIR* d = ::opendir("/proc/self/fd")) {
    const int dir_fd = ::dirfd(d);
    while (const dirent* ent = ::readdir(d)) {
      char* end = nullptr;
      const long fd = std::strtol(ent->d_name, &end, 10);
      if (end == ent->d_name || *end != '\0') continue;  // "." / ".."
      if (fd <= 2 || fd == keep || fd == dir_fd) continue;
      to_close.push_back(static_cast<int>(fd));
    }
    ::closedir(d);
  } else {
    for (int fd = 3; fd < 1024; ++fd) {
      if (fd != keep) to_close.push_back(fd);
    }
  }
  for (const int fd : to_close) ::close(fd);
}

/// Sums worker round deltas the way the in-process engine merges per-range
/// stats: counters add, maxima combine by max. Deliberately
/// not RunStats::operator+= (which also adds `rounds` and overwrites
/// `quiesced`; the coordinator owns both of those).
void merge_worker_stats(RunStats& into, const RunStats& d) {
  into.messages += d.messages;
  into.bits += d.bits;
  into.max_edge_bits = std::max(into.max_edge_bits, d.max_edge_bits);
  into.violations += d.violations;
  into.max_node_memory_bits =
      std::max(into.max_node_memory_bits, d.max_node_memory_bits);
  into.messages_dropped += d.messages_dropped;
  into.messages_corrupted += d.messages_corrupted;
  into.crashed_node_rounds += d.crashed_node_rounds;
}

}  // namespace

ShardedNetwork::ShardedNetwork(const graph::Graph& g, ShardConfig cfg)
    : graph_(&g), cfg_(std::move(cfg)) {
  bandwidth_bits_ = cfg_.net.bandwidth_bits != 0
                        ? cfg_.net.bandwidth_bits
                        : qc::congest_bandwidth_bits(g.n());
  asn_ = make_assignment(g.n(), cfg_.shards);
  replicas_.resize(g.n());
}

ShardedNetwork::~ShardedNetwork() { teardown(/*graceful=*/!broken_); }

std::vector<pid_t> ShardedNetwork::worker_pids() const {
  std::vector<pid_t> pids;
  pids.reserve(workers_.size());
  for (const auto& w : workers_) pids.push_back(w.pid);
  return pids;
}

void ShardedNetwork::init_programs(const ProgramFactory& make) {
  teardown(/*graceful=*/!broken_);
  factory_ = make;
  for (NodeId v = 0; v < n(); ++v) {
    replicas_[v] = make(v);
    require(replicas_[v] != nullptr,
            "ShardedNetwork::init_programs: factory returned null");
  }
  round_ = 0;
  stats_ = RunStats{};
  perf_ = ShardPerfCounters{};
  started_ = false;
  broken_ = false;
  needs_harvest_ = false;  // replicas hold pristine initial state
  memory_audit_ = true;
  interrupted_ = false;
  spawn_workers();
}

void ShardedNetwork::spawn_workers() {
  const bool collect_events = cfg_.net.observer != nullptr;
  workers_.assign(asn_.shards, Worker{});
  // A fresh arena per spawn: the zero-initialized pages ARE the valid idle
  // state of every channel and ring, so a respawn can never inherit a
  // stale doorbell from a previous (possibly crashed) worker set. The
  // views below and the forked children all alias the same mapping.
  layout_ = plan_layout(*graph_, asn_, collect_events);
  c2w_.clear();
  w2c_.clear();
  arena_ = ShmArena(layout_.total_bytes);
  for (std::uint32_t s = 0; s < asn_.shards; ++s) {
    c2w_.emplace_back(arena_.base() + layout_.c2w[s].off, layout_.c2w[s].cap);
    w2c_.emplace_back(arena_.base() + layout_.w2c[s].off, layout_.w2c[s].cap);
  }
  re_.assign(asn_.shards, RoundEndFrame{});
  done_.assign(asn_.shards, 0);
  // Any buffered stdio the child inherits would be flushed twice (once per
  // process); drain it while there is still only one process.
  std::fflush(nullptr);
  for (std::uint32_t s = 0; s < asn_.shards; ++s) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      const std::string err = std::strerror(errno);
      teardown(/*graceful=*/false);
      throw Error("ShardedNetwork: socketpair failed: " + err);
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      const std::string err = std::strerror(errno);
      ::close(sv[0]);
      ::close(sv[1]);
      teardown(/*graceful=*/false);
      throw Error("ShardedNetwork: fork failed: " + err);
    }
    if (pid == 0) {
      // Worker process. Drop the inherited fd table (including earlier
      // workers' coordinator ends) and the inherited metrics registry —
      // the coordinator reports shard metrics; a worker reporting into a
      // fork-shared registry would double-count and the export would be
      // lost at _exit anyway.
      close_other_fds(sv[1]);
      metrics::set_global(nullptr);
      WorkerLink link;
      link.fd = sv[1];
      link.shm = arena_.base();
      link.layout = &layout_;
      link.shard = s;
      link.collect_events = collect_events;
      link.verify_zero_alloc_from_round = cfg_.verify_zero_alloc_from_round;
      const int rc = run_worker(link, *graph_, cfg_.net, asn_, factory_);
      // _exit, not exit: the child must not run the parent's atexit
      // handlers (leak-check finalizers, stdio flushes of inherited
      // buffers) — the same discipline as qcongestd's test forks.
      ::_exit(rc);
    }
    ::close(sv[1]);
    workers_[s].pid = pid;
    workers_[s].fd = sv[0];
  }
  spawned_ = true;
  metrics::count("shard.spawns", asn_.shards);
  metrics::gauge("shard.workers", static_cast<double>(asn_.shards));
}

std::string ShardedNetwork::teardown(bool graceful) {
  std::string problems;
  if (graceful) {
    const auto bye = encode_empty(ShardOp::kShutdown);
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (workers_[w].fd < 0) continue;
      // Prefer the channel (the worker is parked on its futex); fall back
      // to a hinted socket frame, and if even that fails the fd close
      // below surfaces as EOF within one worker wait slice.
      if (w < c2w_.size() && c2w_[w].valid() && c2w_[w].idle() &&
          bye.size() <= c2w_[w].capacity()) {
        std::memcpy(c2w_[w].buffer().data(), bye.data(), bye.size());
        c2w_[w].publish_frame(bye.size());
        continue;
      }
      if (w < c2w_.size() && c2w_[w].valid()) {
        c2w_[w].try_publish_signal(ShmSignal::kSocket);
      }
      try {
        serve::write_frame(workers_[w].fd, bye, kMaxShardFrameBytes);
      } catch (...) {  // a dead worker is reported via its exit status
      }
    }
  }
  for (auto& w : workers_) {
    if (w.fd >= 0) {
      ::close(w.fd);  // EOF tells a healthy worker to exit 0
      w.fd = -1;
    }
  }
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    auto& w = workers_[s];
    if (w.pid <= 0) continue;
    if (!graceful) ::kill(w.pid, SIGKILL);
    int st = 0;
    bool reaped = false;
    // Workers exit promptly on shutdown/EOF; poll briefly, then escalate
    // so a wedged worker can never hang the coordinator.
    for (int i = 0; i < 5000; ++i) {
      const pid_t r = ::waitpid(w.pid, &st, WNOHANG);
      if (r == w.pid || (r < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      ::usleep(1000);
    }
    if (!reaped) {
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, &st, 0);
      problems += "worker " + std::to_string(s) + " had to be SIGKILLed; ";
    } else if (graceful && !(WIFEXITED(st) && WEXITSTATUS(st) == 0)) {
      problems += "worker " + std::to_string(s) +
                  (WIFSIGNALED(st)
                       ? " died on signal " + std::to_string(WTERMSIG(st))
                       : " exited with status " +
                             std::to_string(WIFEXITED(st) ? WEXITSTATUS(st)
                                                          : -1)) +
                  "; ";
    }
    w.pid = -1;
  }
  spawned_ = false;
  return problems;
}

void ShardedNetwork::shutdown() {
  if (!spawned_) return;
  const std::string problems = teardown(/*graceful=*/!broken_);
  if (!problems.empty()) {
    throw Error("ShardedNetwork::shutdown: " + problems);
  }
}

void ShardedNetwork::mark_broken() {
  broken_ = true;
  teardown(/*graceful=*/false);
}

void ShardedNetwork::send_frame(std::size_t w,
                                std::span<const std::uint8_t> payload) {
  auto& ch = c2w_[w];
  if (ch.valid() && ch.idle() && payload.size() <= ch.capacity()) {
    std::memcpy(ch.buffer().data(), payload.data(), payload.size());
    ch.publish_frame(payload.size());
    return;
  }
  // Hint first, then write: the worker blocks on the channel futex alone
  // and only reads the socket after seeing the hint (or on its timeout
  // poll, if the channel was too busy even for the hint).
  if (ch.valid()) ch.try_publish_signal(ShmSignal::kSocket);
  try {
    serve::write_frame(workers_[w].fd, payload, kMaxShardFrameBytes);
  } catch (const std::exception& e) {
    const std::string what = e.what();
    mark_broken();
    throw Error("shard: worker " + std::to_string(w) +
                " is unreachable (crashed?): " + what);
  }
}

void ShardedNetwork::dispatch(std::size_t w,
                              std::span<const std::uint8_t> payload,
                              Collect what, bool via_socket) {
  if (decode_op(payload) == ShardOp::kError) {
    const std::string text = decode_error(payload);
    mark_broken();
    throw Error("shard: worker " + std::to_string(w) + " failed: " + text);
  }
  // Round frames always fit their slot: only lifecycle and error frames
  // may take the socket.
  if (via_socket && what == Collect::kRoundEnd) {
    throw serve::ProtocolError("shard: round_end arrived over the socket");
  }
  switch (what) {
    case Collect::kRoundEnd:
      decode_round_end_into(payload, re_[w]);
      break;
    case Collect::kStartDone: {
      StartDoneFrame f = decode_start_done(payload);
      workers_[w].inflight = f.inflight;
      workers_[w].halted = f.halted;
      workers_[w].wakes = f.wakes;
      break;
    }
    case Collect::kHarvestDone: {
      HarvestDoneFrame f = decode_harvest_done(payload);
      if (f.states.size() !=
          asn_.owned_count(static_cast<std::uint32_t>(w))) {
        mark_broken();
        throw Error("shard: worker " + std::to_string(w) +
                    " harvested the wrong number of programs");
      }
      const NodeId begin = asn_.begin(static_cast<std::uint32_t>(w));
      for (std::size_t i = 0; i < f.states.size(); ++i) {
        replicas_[begin + i]->restore_state(f.states[i]);
      }
      break;
    }
  }
}

void ShardedNetwork::check_liveness(Collect what) {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (done_[w]) continue;
    pollfd p{};
    p.fd = workers_[w].fd;
    p.events = POLLIN;
    const int r = ::poll(&p, 1, 0);
    if (r <= 0) continue;  // EINTR or nothing pending: just slow, re-wait
    if ((p.revents & POLLIN) != 0) {
      // Socket bytes without a visible channel signal. Normally the hint
      // lands first (it is published before the socket write), so re-check
      // the channel and let the main scan service a hinted frame; a truly
      // unhinted frame is a worker whose error fallback found its channel
      // busy — read and dispatch it here (no channel release to pair).
      if (w2c_[w].poll() != ShmSignal::kNone) continue;
      bool ok = false;
      try {
        ok = serve::read_frame(workers_[w].fd, rx_, kMaxShardFrameBytes);
      } catch (const std::exception& e) {
        const std::string text = e.what();
        mark_broken();
        throw Error("shard: worker " + std::to_string(w) +
                    " sent a malformed frame: " + text);
      }
      if (!ok) {
        mark_broken();
        throw Error("shard: worker " + std::to_string(w) +
                    " exited mid-run (crashed?)");
      }
      try {
        dispatch(w, rx_, what, /*via_socket=*/true);
      } catch (const serve::ProtocolError& e) {
        const std::string text = e.what();
        mark_broken();
        throw Error("shard: worker " + std::to_string(w) +
                    " sent a malformed frame: " + text);
      }
      done_[w] = 1;
    } else if ((p.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0) {
      mark_broken();
      throw Error("shard: worker " + std::to_string(w) +
                  " exited mid-run (crashed?)");
    }
  }
}

void ShardedNetwork::collect_all(Collect what) {
  std::fill(done_.begin(), done_.end(), 0);
  std::size_t remaining = workers_.size();
  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (done_[w] != 0) continue;
      const ShmSignal sig = w2c_[w].poll();
      if (sig == ShmSignal::kNone) continue;
      try {
        if (sig == ShmSignal::kFrame) {
          // dispatch() copies everything out of the slot before release()
          // returns the channel to the worker.
          dispatch(w, w2c_[w].frame(), what, /*via_socket=*/false);
          w2c_[w].release();
        } else {  // kSocket hint: a lifecycle frame too big for the slot
          bool ok = false;
          ok = serve::read_frame(workers_[w].fd, rx_, kMaxShardFrameBytes);
          if (!ok) {
            mark_broken();
            throw Error("shard: worker " + std::to_string(w) +
                        " exited mid-run (crashed?)");
          }
          w2c_[w].release();
          dispatch(w, rx_, what, /*via_socket=*/true);
        }
      } catch (const serve::ProtocolError& e) {
        const std::string text = e.what();
        mark_broken();
        throw Error("shard: worker " + std::to_string(w) +
                    " sent a malformed frame: " + text);
      }
      done_[w] = 1;
      progressed = true;
    }
    remaining = 0;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (done_[w] == 0) ++remaining;
    }
    if (remaining == 0) break;
    if (!progressed) {
      // Sleep on the first pending worker's doorbell, then scan everyone
      // again: the barrier ends only when all have published, so which
      // one wakes the coordinator does not matter. A full slice with no
      // publication means someone may be dead — ask the sockets.
      const auto first = static_cast<std::size_t>(
          std::find(done_.begin(), done_.end(), 0) - done_.begin());
      if (w2c_[first].wait(kBarrierWaitSliceMs) == ShmSignal::kNone) {
        check_liveness(what);
      }
    }
  }
}

bool ShardedNetwork::all_quiet() const {
  std::int64_t inflight = 0;
  std::int64_t halted = 0;
  std::int64_t wakes = 0;
  for (const auto& w : workers_) {
    inflight += w.inflight;
    halted += w.halted;
    wakes += w.wakes;
  }
  // Per-worker counters can individually go negative (a worker that mostly
  // receives decrements more than it increments), but the sums track the
  // single-process counters exactly: every queued message is counted +1 by
  // its sender's worker and -1 by its receiver's worker.
  return halted == static_cast<std::int64_t>(n()) && inflight == 0 &&
         wakes == 0;
}

void ShardedNetwork::start_if_needed() {
  if (started_) return;
  const auto go = encode_empty(ShardOp::kStart);
  for (std::size_t w = 0; w < workers_.size(); ++w) send_frame(w, go);
  collect_all(Collect::kStartDone);
  started_ = true;
}

void ShardedNetwork::flush_events(std::uint32_t round) {
  DeliveryObserver* const obs = cfg_.net.observer.get();
  // Each worker's batch is ascending in (receiver, port) — a worker
  // delivers its range in id order — and worker s's range lies wholly
  // below worker s+1's, so the batches concatenated in shard order are
  // the sequential engine's (round, receiver, port) order exactly.
  for (const RoundEndFrame& re : re_) {
    for (const DeliveryEvent& e : re.events) {
      obs->on_deliver(e.from, e.to, e.msg, round);
    }
  }
}

RunStats ShardedNetwork::run_phase(std::uint32_t max_rounds, bool until_quiet) {
  require(spawned_,
          "ShardedNetwork::run: init_programs was not called (or the "
          "network was shut down)");
  require(!broken_,
          "ShardedNetwork::run: a worker failed earlier; call init_programs "
          "to respawn");
  metrics::ScopedTimer span("shard.phase");
  start_if_needed();
  RunStats phase;
  std::uint64_t boundary_messages = 0;
  std::uint64_t boundary_bytes = 0;
  std::uint64_t events_merged = 0;
  std::uint64_t events_elided = 0;
  std::uint64_t barrier_us = 0;
  std::uint32_t executed = 0;
  const bool have_observer = cfg_.net.observer != nullptr;
  while (executed < max_rounds && !(until_quiet && all_quiet())) {
    if (cfg_.stop != nullptr &&
        cfg_.stop->load(std::memory_order_relaxed)) {
      interrupted_ = true;
      break;
    }
    ++round_;
    rb_.round = round_;
    rb_.memory_audit = memory_audit_;
    // The in-process engine polls every node in a phase's first round and
    // afterwards only the nodes that ran; workers do the same on request.
    rb_.memory_sweep_all = executed == 0;
    // Publish round_begin to EVERY worker before blocking on ANY
    // round_end: blocking on worker 0's reply before worker 1 has its
    // round_begin serializes the cluster behind whichever worker happens
    // to be slow (regression-tested with a deliberately delayed worker).
    // The ping-pong protocol leaves every c2w channel idle here, and a
    // round_begin always fits its slot (publish_frame checks both).
    for (auto& ch : c2w_) {
      ch.publish_frame(encode_round_begin_to(ch.buffer(), rb_));
    }
    const auto barrier_t0 = std::chrono::steady_clock::now();
    collect_all(Collect::kRoundEnd);
    const std::uint64_t wait_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - barrier_t0)
            .count());
    barrier_us += wait_us;
    RunStats round_merged;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      RoundEndFrame& re = re_[w];
      if (re.round != round_) {
        mark_broken();
        throw Error("shard: worker " + std::to_string(w) +
                    " answered for the wrong round");
      }
      merge_worker_stats(round_merged, re.stats);
      workers_[w].inflight = re.inflight;
      workers_[w].halted = re.halted;
      workers_[w].wakes = re.wakes;
      boundary_messages += re.boundary_msgs;
      boundary_bytes += re.boundary_bytes;
      events_merged += re.events.size();
    }
    if (have_observer) {
      flush_events(round_);
    } else {
      // Workers never built or shipped these events; every delivered
      // message this round is one elided observer event.
      events_elided += round_merged.messages;
    }
    // The disarm-after-round-1 rule of the in-process engine, decided
    // globally: workers sweep only their owned programs, so only the
    // merged round-1 maximum can tell whether anyone audits memory.
    if (memory_audit_ && round_ == 1 &&
        round_merged.max_node_memory_bits == 0) {
      memory_audit_ = false;
    }
    merge_worker_stats(phase, round_merged);
    ++executed;
    if (metrics::enabled()) {
      metrics::observe("shard.barrier_wait_us",
                       static_cast<double>(wait_us));
    }
  }
  phase.rounds = executed;
  phase.quiesced = all_quiet();
  stats_ += phase;
  perf_.rounds += executed;
  perf_.barrier_wait_us += barrier_us;
  perf_.boundary_bytes += boundary_bytes;
  perf_.boundary_messages += boundary_messages;
  perf_.events_elided += events_elided;
  needs_harvest_ = true;
  span.add(phase.rounds, phase.messages, phase.bits);
  if (metrics::enabled()) {
    metrics::count("shard.phases");
    metrics::count("shard.rounds", phase.rounds);
    metrics::count("shard.boundary_messages", boundary_messages);
    metrics::count("shard.boundary_bytes", boundary_bytes);
    metrics::count("shard.observer_events_merged", events_merged);
    metrics::count("shard.events_elided", events_elided);
  }
  return phase;
}

RunStats ShardedNetwork::run_rounds(std::uint32_t rounds) {
  return run_phase(rounds, /*until_quiet=*/false);
}

RunStats ShardedNetwork::run_until_quiescent(std::uint32_t max_rounds) {
  return run_phase(max_rounds, /*until_quiet=*/true);
}

void ShardedNetwork::sync_programs() {
  if (!needs_harvest_) return;
  require(spawned_ && !broken_,
          "ShardedNetwork::program: workers are gone; results from the last "
          "run are unavailable (read them before shutdown)");
  const auto req = encode_empty(ShardOp::kHarvest);
  for (std::size_t w = 0; w < workers_.size(); ++w) send_frame(w, req);
  collect_all(Collect::kHarvestDone);
  metrics::count("shard.harvests");
  needs_harvest_ = false;
}

NodeProgram& ShardedNetwork::program(NodeId v) {
  require(v < n() && replicas_[v] != nullptr,
          "ShardedNetwork::program: no program");
  sync_programs();
  return *replicas_[v];
}

}  // namespace qc::congest::shard
