#include "algos/bfs_tree.hpp"

#include <algorithm>
#include <memory>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace qc::algos {

using congest::Message;
using congest::Network;
using congest::NodeContext;
using graph::NodeId;

namespace {
// Message layout for the BFS wave: (distance of sender, child-claim flag).
constexpr std::size_t kDistField = 0;
constexpr std::size_t kClaimField = 1;
}  // namespace

void BfsTreeProgram::on_start(NodeContext& ctx) {
  if (ctx.id() != root_) return;
  active_ = true;
  dist_ = 0;
  Message m;
  m.push(0, ctx.id_bits() + 1).push(0, 1);
  ctx.broadcast(m);
}

void BfsTreeProgram::on_round(NodeContext& ctx) {
  // Child claims may arrive in any later round (from nodes we activated).
  for (const auto& in : ctx.inbox()) {
    if (in.msg.field(kClaimField) == 1) {
      ++child_count_;
    }
  }
  if (!active_) {
    // First activation this round; the inbox is in port order, hence the
    // first activating message comes from the smallest-id neighbor —
    // the same parent the centralized BFS picks.
    const auto inbox = ctx.inbox();
    if (!inbox.empty()) {
      const std::uint32_t parent_port = inbox.front().port;
      active_ = true;
      dist_ = static_cast<std::uint32_t>(inbox.front().msg.field(kDistField)) +
              1;
      parent_ = ctx.neighbor(parent_port);
      // (dist, claim 0) to every port but the parent's shares one stored
      // payload; the parent alone gets the child claim (dist, claim 1).
      Message m;
      m.push(dist_, ctx.id_bits() + 1).push(0, 1);
      ctx.broadcast(m, parent_port);
      m.set_field(kClaimField, 1);
      ctx.send(parent_port, m);
    }
  }
  ctx.vote_halt();
}

std::uint64_t BfsTreeProgram::memory_bits() const {
  // Working state of Figure 1: activation flag, distance, parent id and
  // the child counter — a constant number of O(log n)-bit registers.
  return 1 + 3ULL * 32;
}

// Mutable state only: root_ is a constructor parameter the restoring side
// already has (replicas are built by the same factory). Same principle in
// the other programs below.
void BfsTreeProgram::serialize_state(Message& out) const {
  out.push(active_ ? 1 : 0, 1)
      .push(dist_, 32)
      .push(parent_, 32)
      .push(child_count_, 32);
}

void BfsTreeProgram::restore_state(const Message& in) {
  require(in.num_fields() == 4, "BfsTreeProgram::restore_state: bad shape");
  active_ = in.field(0) != 0;
  dist_ = static_cast<std::uint32_t>(in.field(1));
  parent_ = static_cast<NodeId>(in.field(2));
  child_count_ = static_cast<std::uint32_t>(in.field(3));
}

BfsOutcome build_bfs_tree(const graph::Graph& g, NodeId root,
                          congest::NetworkConfig cfg,
                          std::uint32_t max_rounds) {
  Network net(g, cfg);
  return build_bfs_tree_on(net, root, max_rounds);
}

BfsOutcome build_bfs_tree_with_retry(const graph::Graph& g, NodeId root,
                                     congest::NetworkConfig cfg,
                                     RetryPolicy policy) {
  require(policy.max_attempts >= 1,
          "build_bfs_tree_with_retry: need at least one attempt");
  require(policy.budget_growth >= 1,
          "build_bfs_tree_with_retry: budget_growth must be >= 1");
  congest::RunStats acc;
  BfsOutcome out;
  std::uint32_t budget = g.n() + 2;
  for (std::uint32_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
    auto attempt_cfg = cfg;
    attempt_cfg.fault = cfg.fault.for_attempt(attempt);
    out = build_bfs_tree(g, root, attempt_cfg, budget);
    acc += out.stats;
    out.attempts = attempt + 1;
    if (out.status == PhaseStatus::kQuiesced) break;
    budget *= policy.budget_growth;
  }
  out.stats = acc;
  return out;
}

ConvergecastProgram::ConvergecastProgram(NodeId parent,
                                         std::uint32_t num_children,
                                         AggregateOp op, std::uint64_t primary,
                                         std::uint64_t secondary,
                                         std::uint32_t primary_bits,
                                         std::uint32_t secondary_bits)
    : parent_(parent),
      op_(op),
      primary_(primary),
      secondary_(secondary),
      primary_bits_(primary_bits),
      secondary_bits_(secondary_bits),
      pending_children_(num_children) {}

void ConvergecastProgram::absorb(std::uint64_t p, std::uint64_t s) {
  switch (op_) {
    case AggregateOp::kMax:
      if (p > primary_ || (p == primary_ && s > secondary_)) {
        primary_ = p;
        secondary_ = s;
      }
      break;
    case AggregateOp::kMin:
      if (p < primary_ || (p == primary_ && s < secondary_)) {
        primary_ = p;
        secondary_ = s;
      }
      break;
    case AggregateOp::kSum:
      primary_ += p;
      break;
  }
}

void ConvergecastProgram::on_round(NodeContext& ctx) {
  for (const auto& in : ctx.inbox()) {
    absorb(in.msg.field(0), in.msg.field(1));
    check_internal(pending_children_ > 0,
                   "ConvergecastProgram: unexpected extra report");
    --pending_children_;
  }
  if (pending_children_ == 0 && !sent_ && !reported_root_) {
    if (parent_ == graph::kInvalidNode) {
      reported_root_ = true;  // root holds the aggregate
    } else {
      Message m;
      m.push(primary_, primary_bits_).push(secondary_, secondary_bits_);
      ctx.send_to(parent_, m);
      sent_ = true;
    }
  }
  ctx.vote_halt();
}

std::uint64_t ConvergecastProgram::memory_bits() const {
  return primary_bits_ + secondary_bits_ + 32 + 2;
}

void ConvergecastProgram::serialize_state(Message& out) const {
  out.push(primary_, 64)
      .push(secondary_, 64)
      .push(pending_children_, 32)
      .push(sent_ ? 1 : 0, 1)
      .push(reported_root_ ? 1 : 0, 1);
}

void ConvergecastProgram::restore_state(const Message& in) {
  require(in.num_fields() == 5,
          "ConvergecastProgram::restore_state: bad shape");
  primary_ = in.field(0);
  secondary_ = in.field(1);
  pending_children_ = static_cast<std::uint32_t>(in.field(2));
  sent_ = in.field(3) != 0;
  reported_root_ = in.field(4) != 0;
}

TreeBroadcastProgram::TreeBroadcastProgram(NodeId parent, std::uint64_t value,
                                           std::uint32_t value_bits)
    : parent_(parent),
      value_(value),
      value_bits_(value_bits),
      received_(parent == graph::kInvalidNode) {}

void TreeBroadcastProgram::forward(NodeContext& ctx) {
  // The node does not know which neighbors are its children; sending to
  // every non-parent neighbor costs one message per edge and the claim
  // "accept only from the parent" keeps the semantics of a tree broadcast.
  // One payload serves every port; a root, or a parent that is not a
  // neighbor, leaves no port out.
  std::uint32_t parent_port = congest::kNoPort;
  if (parent_ != graph::kInvalidNode) {
    for (std::uint32_t p = 0; p < ctx.degree(); ++p) {
      if (ctx.neighbor(p) == parent_) {
        parent_port = p;
        break;
      }
    }
  }
  ctx.broadcast(Message().push(value_, value_bits_), parent_port);
}

void TreeBroadcastProgram::on_start(NodeContext& ctx) {
  if (parent_ == graph::kInvalidNode) forward(ctx);
}

void TreeBroadcastProgram::on_round(NodeContext& ctx) {
  if (!received_) {
    for (const auto& in : ctx.inbox()) {
      if (ctx.neighbor(in.port) != parent_) continue;
      value_ = in.msg.field(0);
      received_ = true;
      forward(ctx);
      break;
    }
  }
  ctx.vote_halt();
}

std::uint64_t TreeBroadcastProgram::memory_bits() const {
  return value_bits_ + 2;
}

void TreeBroadcastProgram::serialize_state(Message& out) const {
  out.push(received_ ? 1 : 0, 1).push(value_, 64);
}

void TreeBroadcastProgram::restore_state(const Message& in) {
  require(in.num_fields() == 2,
          "TreeBroadcastProgram::restore_state: bad shape");
  received_ = in.field(0) != 0;
  value_ = in.field(1);
}

AggregateOutcome aggregate_to_root(const graph::Graph& g,
                                   const TreeState& tree, AggregateOp op,
                                   const std::vector<std::uint64_t>& primary,
                                   const std::vector<std::uint64_t>& secondary,
                                   std::uint32_t primary_bits,
                                   std::uint32_t secondary_bits,
                                   congest::NetworkConfig cfg) {
  Network net(g, cfg);
  return aggregate_to_root_on(net, tree, op, primary, secondary, primary_bits,
                              secondary_bits);
}

BroadcastOutcome broadcast_from_root(const graph::Graph& g,
                                     const TreeState& tree,
                                     std::uint64_t value,
                                     std::uint32_t value_bits,
                                     congest::NetworkConfig cfg) {
  Network net(g, cfg);
  return broadcast_from_root_on(net, tree, value, value_bits);
}

EccOutcome compute_eccentricity(const graph::Graph& g, NodeId root,
                                congest::NetworkConfig cfg) {
  Network net(g, cfg);
  return compute_eccentricity_on(net, root);
}

}  // namespace qc::algos
