#include "algos/evaluation.hpp"

#include <algorithm>
#include <map>
#include <memory>

#include "congest/trace.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace qc::algos {

using congest::Message;
using congest::Network;
using congest::NodeContext;
using graph::NodeId;

EvaluationProgram::EvaluationProgram(Params params, NodeId tree_parent,
                                     std::uint32_t depth, bool in_mask)
    : p_(params), tree_parent_(tree_parent), depth_(depth), in_mask_(in_mask) {
  kind_bits_ = 2;
  tau_bits_ = qc::bit_width_for(static_cast<std::uint64_t>(p_.steps) + 2);
  delta_bits_ =
      qc::bit_width_for(static_cast<std::uint64_t>(p_.pipeline_len) + 2);
  dist_bits_ = delta_bits_;
  id_bits_ = qc::bit_width_for(p_.n) + 1;
}

void EvaluationProgram::receive_token(NodeContext& ctx,
                                      std::uint32_t position, bool from_parent,
                                      NodeId came_from) {
  if (tau_prime_ < 0) {
    tau_prime_ = static_cast<std::int64_t>(position);
  }
  if (position >= p_.steps) return;  // segment complete, token dies here

  // The holder does not know its children (only O(log n) bits of state:
  // its parent pointer); it discovers the next hop with a probe. After a
  // top-down arrival the tour continues at the smallest child; after
  // returning from child c, at the smallest child with id > c.
  token_position_ = position;
  probe_threshold_ = from_parent ? -1 : static_cast<std::int64_t>(came_from);
  awaiting_replies_ = true;
  const std::uint64_t threshold_enc =
      probe_threshold_ < 0 ? 0
                           : static_cast<std::uint64_t>(probe_threshold_) + 1;
  ctx.broadcast(Message()
                    .push(kProbe, kind_bits_)
                    .push(threshold_enc, id_bits_ + 1));
}

void EvaluationProgram::token_round(NodeContext& ctx) {
  // Collect this round's Step 1 messages. At any round the in-flight
  // traffic is homogeneous (token / probes / replies alternate), but each
  // message carries its kind so nothing depends on that.
  bool reply_round = false;
  NodeId best_greater = graph::kInvalidNode;  // min child id > threshold
  NodeId best_any = graph::kInvalidNode;      // min child id overall
  for (const auto& in : ctx.inbox()) {
    const auto kind = static_cast<Kind>(in.msg.field(0));
    const NodeId sender = ctx.neighbor(in.port);
    switch (kind) {
      case kToken: {
        const auto position = static_cast<std::uint32_t>(in.msg.field(1));
        receive_token(ctx, position, sender == tree_parent_, sender);
        break;
      }
      case kProbe: {
        // Reply iff the prober is our tree parent and we participate in
        // the walk; report whether our id clears the threshold.
        if (sender == tree_parent_ && in_mask_) {
          const std::uint64_t enc = in.msg.field(1);
          const bool greater =
              enc == 0 || static_cast<std::uint64_t>(ctx.id()) + 1 > enc;
          ctx.send(in.port, Message()
                                .push(kReply, kind_bits_)
                                .push(greater ? 1 : 0, 1));
        }
        break;
      }
      case kReply: {
        check_internal(awaiting_replies_,
                       "Evaluation: unsolicited probe reply");
        reply_round = true;
        if (best_any == graph::kInvalidNode || sender < best_any) {
          best_any = sender;
        }
        if (in.msg.field(1) == 1 &&
            (best_greater == graph::kInvalidNode || sender < best_greater)) {
          best_greater = sender;
        }
        break;
      }
      default:
        check_internal(false, "Evaluation: unknown Step 1 message kind");
    }
  }

  if (awaiting_replies_) {
    // Replies (if any children exist) arrive exactly two rounds after the
    // probe; a childless holder sees an empty reply round, which is
    // indistinguishable from "not yet" — so track the schedule: the probe
    // was sent when the token arrived, replies land two rounds later.
    // We detect the reply round by round parity relative to the token
    // arrival: the token arrives at rounds 3j, replies at 3j + 2.
    const bool is_reply_round = (ctx.round() % 3) == 2;
    if (reply_round || is_reply_round) {
      awaiting_replies_ = false;
      NodeId next = best_greater;
      if (next == graph::kInvalidNode) {
        if (tree_parent_ != graph::kInvalidNode) {
          next = tree_parent_;  // subtree done: go up
        } else {
          // Root finished (or restarted) the tour; wrap to the beginning.
          check_internal(best_any != graph::kInvalidNode,
                         "Evaluation: token stuck at childless root");
          next = best_any;
        }
      }
      ctx.send_to(next, Message()
                            .push(kToken, kind_bits_)
                            .push(token_position_ + 1, tau_bits_));
    }
  }
}

void EvaluationProgram::on_start(NodeContext& ctx) {
  if (ctx.id() != p_.u0) {
    arm_wake(ctx);
    return;
  }
  check_internal(in_mask_, "Evaluation: u0 must be on the walk");
  // The walk starts at u0 as a first (top-down) visit at position 0. The
  // on_start probe goes out "at round 0": replies arrive at round 2 and
  // the first token move lands at round 3 — position j arrives at 3j.
  receive_token(ctx, 0, /*from_parent=*/true, graph::kInvalidNode);
  arm_wake(ctx);
}

void EvaluationProgram::arm_wake(NodeContext& ctx) const {
  const std::uint32_t now = ctx.round();
  const std::uint32_t token_rounds = token_phase_rounds(p_.steps);
  std::uint32_t next = 0;
  const auto consider = [&](std::uint64_t r) {
    if (r > now && (next == 0 || r < next)) {
      next = static_cast<std::uint32_t>(r);
    }
  };
  // Step 1: a prober acts on the next reply round (r = 2 mod 3) even when
  // no child answers (see token_round).
  if (awaiting_replies_) {
    const std::uint32_t reply = now + 1 + (5 - (now + 1) % 3) % 3;
    if (reply <= token_rounds) consider(reply);
  }
  // Step 2: a window member launches its wave at local round 2*tau' + 1.
  if (tau_prime_ >= 0) {
    consider(token_rounds + 2 * static_cast<std::uint64_t>(tau_prime_) + 1);
  }
  // Steps 3-4: the convergecast report round (see convergecast_round).
  const bool is_root = tree_parent_ == graph::kInvalidNode;
  consider(static_cast<std::uint64_t>(token_rounds) + p_.pipeline_len +
           (is_root ? p_.tree_height + 1 : p_.tree_height - depth_ + 1));
  if (next != 0) ctx.wake_at(next);
}

void EvaluationProgram::pipeline_round(NodeContext& ctx,
                                       std::uint32_t local_round) {
  // Figure 2 Step 2(3a/3b): disregard stale types, keep one fresh message.
  bool have_kept = false;
  std::int64_t kept_tau = 0;
  std::uint64_t kept_delta = 0;
  for (const auto& in : ctx.inbox()) {
    const auto tau = static_cast<std::int64_t>(in.msg.field(0));
    const std::uint64_t delta = in.msg.field(1);
    if (tau <= tv_) continue;  // 3a: already processed this type
    if (have_kept) {
      // Lemma 4 as an executable invariant: every fresh message this round
      // must be identical.
      check_internal(tau == kept_tau && delta == kept_delta,
                     "Lemma 4 violated: distinct fresh messages in a round");
      continue;
    }
    have_kept = true;
    kept_tau = tau;
    kept_delta = delta;
  }

  // Figure 2 Step 2(2): a window member launches its own wave at local
  // round 2*tau'(v) + 1 (the +1 shift keeps round numbers 1-based).
  const bool own_start =
      tau_prime_ >= 0 &&
      local_round == 2 * static_cast<std::uint64_t>(tau_prime_) + 1;
  if (own_start) {
    // The scheduling lemmas guarantee no fresh foreign wave lands exactly
    // on a member's start round (see Lemma 2); assert rather than assume.
    check_internal(!have_kept,
                   "Evaluation schedule clash: foreign wave on start round");
    tv_ = tau_prime_;
    ctx.broadcast(Message()
                      .push(static_cast<std::uint64_t>(tau_prime_), tau_bits_)
                      .push(0, delta_bits_));
    return;
  }
  if (have_kept) {
    tv_ = kept_tau;
    // delta counts hops already traveled; this node is one hop further.
    dv_ = std::max(dv_, static_cast<std::uint32_t>(kept_delta) + 1);
    ctx.broadcast(Message()
                      .push(static_cast<std::uint64_t>(kept_tau), tau_bits_)
                      .push(kept_delta + 1, delta_bits_));
  }
}

void EvaluationProgram::convergecast_round(NodeContext& ctx,
                                           std::uint32_t local_round) {
  for (const auto& in : ctx.inbox()) {
    // A 2-field message here would mean the Step 2 pipeline outlived its
    // budget and leaked into Step 3 — the schedule bounds would be wrong.
    check_internal(in.msg.num_fields() == 1,
                   "Evaluation: pipeline message leaked into convergecast");
    conv_max_ =
        std::max(conv_max_, static_cast<std::uint32_t>(in.msg.field(0)));
  }
  const bool is_root = tree_parent_ == graph::kInvalidNode;
  // Deterministic schedule: depth-k nodes report at local round
  // height - k + 1, exactly one round after all their children did.
  if (!is_root && local_round == p_.tree_height - depth_ + 1) {
    ctx.send_to(tree_parent_,
                Message().push(std::max(dv_, conv_max_), dist_bits_));
  }
  if (is_root && local_round == p_.tree_height + 1) {
    result_ = std::max(dv_, conv_max_);
    has_result_ = true;
  }
}

void EvaluationProgram::on_round(NodeContext& ctx) {
  const std::uint32_t round = ctx.round();
  const std::uint32_t token_rounds = token_phase_rounds(p_.steps);
  if (round <= token_rounds) {
    token_round(ctx);
  } else if (round <= token_rounds + p_.pipeline_len) {
    pipeline_round(ctx, round - token_rounds);
  } else {
    convergecast_round(ctx, round - token_rounds - p_.pipeline_len);
  }
  arm_wake(ctx);
}

std::uint64_t EvaluationProgram::memory_bits() const {
  // Working state of Figure 2: tau', tv, dv, the probe context, the
  // convergecast maximum and a few flags — a constant number of
  // O(log n)-bit counters. (The parent pointer and depth are the |init>
  // data of Proposition 1, also O(log n).)
  return 3ULL * (tau_bits_ + delta_bits_) + 2ULL * id_bits_ + 4;
}

EvaluationOutcome evaluate_window_ecc(const graph::Graph& g,
                                      const TreeState& tree, NodeId u0,
                                      std::uint32_t steps,
                                      congest::NetworkConfig cfg,
                                      const std::vector<bool>* mask) {
  require(u0 < g.n(), "evaluate_window_ecc: u0 out of range");
  require(tree.n() == g.n(), "evaluate_window_ecc: tree size mismatch");
  require(mask == nullptr || mask->size() == g.n(),
          "evaluate_window_ecc: mask size mismatch");
  require(mask == nullptr || (*mask)[u0],
          "evaluate_window_ecc: u0 must be in the mask");

  EvaluationOutcome out;
  if (g.n() == 1) {
    out.max_ecc = 0;
    out.window = {0};
    out.tau_prime = {0};
    return out;
  }

  EvaluationProgram::Params p;
  p.u0 = u0;
  p.steps = steps;
  p.pipeline_len = 2 * steps + 2 * tree.height + 2;
  p.tree_height = tree.height;
  p.n = g.n();

  Network net(g, cfg);
  net.init_programs([&](NodeId v) {
    return std::make_unique<EvaluationProgram>(
        p, tree.parent[v], tree.depth[v],
        mask == nullptr ? true : (*mask)[v]);
  });
  const std::uint32_t total = EvaluationProgram::token_phase_rounds(steps) +
                              p.pipeline_len + tree.height + 1;
  out.stats = net.run_rounds(total);

  out.tau_prime.assign(g.n(), -1);
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto& prog = net.program_as<EvaluationProgram>(v);
    out.tau_prime[v] = prog.tau_prime();
    if (prog.in_window()) out.window.push_back(v);
  }
  const auto& rootp = net.program_as<EvaluationProgram>(tree.root);
  check_internal(rootp.has_result(),
                 "evaluate_window_ecc: root produced no result");
  out.max_ecc = rootp.result();
  return out;
}

namespace {

/// Re-issues a fixed per-round send schedule (used by the Step 5 replay:
/// the recorded forward messages, reversed in time and direction). Only
/// message *sizes* matter — the revert pass uncomputes, and what the
/// bandwidth checker must certify is that the mirrored schedule fits the
/// same channels.
class ScheduleReplayProgram : public congest::NodeProgram {
 public:
  /// schedule[r] = sizes (in bits) to send per port at send-round r
  /// (r == 0 means on_start).
  using Schedule = std::map<std::uint32_t,
                            std::vector<std::pair<std::uint32_t, std::uint32_t>>>;

  explicit ScheduleReplayProgram(Schedule schedule)
      : schedule_(std::move(schedule)) {}

  void on_start(NodeContext& ctx) override { emit(ctx, 0); }
  void on_round(NodeContext& ctx) override { emit(ctx, ctx.round()); }
  std::uint64_t memory_bits() const override { return 64; }
  /// Sends only at its schedule keys; it wakes itself for the next one.
  bool on_demand() const override { return true; }

 private:
  void emit(NodeContext& ctx, std::uint32_t round) {
    const auto next = schedule_.upper_bound(round);
    if (next != schedule_.end()) ctx.wake_at(next->first);
    const auto it = schedule_.find(round);
    if (it == schedule_.end()) return;
    for (const auto& [port, bits] : it->second) {
      Message m;
      for (std::uint32_t sent = 0; sent < bits; sent += 32) {
        m.push(0, std::min(32u, bits - sent));
      }
      ctx.send(port, m);
    }
  }

  Schedule schedule_;
};

}  // namespace

UnitaryEvaluationOutcome evaluate_window_ecc_unitary(
    const graph::Graph& g, const TreeState& tree, NodeId u0,
    std::uint32_t steps, congest::NetworkConfig cfg,
    const std::vector<bool>* mask) {
  // Forward pass, traced; arm() composes the recorder with any observer
  // the caller installed (MultiObserver, caller's observer first).
  congest::TraceRecorder recorder;
  auto traced = recorder.arm(std::move(cfg));

  UnitaryEvaluationOutcome out;
  out.forward = evaluate_window_ecc(g, tree, u0, steps, traced, mask);
  const std::uint32_t total = out.forward.stats.rounds;
  if (total == 0) {  // single-vertex graph
    out.total_rounds = 0;
    return out;
  }

  // Mirror the schedule: a message delivered at forward round t was sent
  // at t-1; its reverse copy travels to->from and must be *delivered* at
  // revert round total - t + 1, i.e. sent at total - t.
  std::vector<ScheduleReplayProgram::Schedule> schedules(g.n());
  for (const auto& e : recorder.events()) {
    const std::uint32_t send_round = total - e.round;
    // The reverse sender is the forward receiver.
    const auto port = [&] {
      const auto nb = g.neighbors(e.to);
      const auto it = std::lower_bound(nb.begin(), nb.end(), e.from);
      check_internal(it != nb.end() && *it == e.from,
                     "unitary replay: trace edge missing");
      return static_cast<std::uint32_t>(it - nb.begin());
    }();
    schedules[e.to][send_round].push_back({port, e.bits});
  }

  congest::NetworkConfig revert_cfg;
  revert_cfg.bandwidth_bits = qc::congest_bandwidth_bits(g.n());
  congest::Network net(g, revert_cfg);
  net.init_programs([&](NodeId v) {
    return std::make_unique<ScheduleReplayProgram>(std::move(schedules[v]));
  });
  // If the mirrored schedule violated bandwidth this would throw; running
  // clean is the feasibility certificate for Step 5.
  out.revert_stats = net.run_rounds(total);

  check_internal(out.revert_stats.rounds == out.forward.stats.rounds,
                 "unitary evaluation: revert/forward round mismatch");
  check_internal(out.revert_stats.bits == out.forward.stats.bits,
                 "unitary evaluation: revert/forward traffic mismatch");
  out.total_rounds = static_cast<std::uint64_t>(out.forward.stats.rounds) +
                     out.revert_stats.rounds;
  return out;
}

}  // namespace qc::algos
