#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "congest/message.hpp"
#include "graph/graph.hpp"

namespace qc::congest {

/// Sink for delivered messages, fed one event stream in a deterministic
/// order — for every round, receivers ascending, and per receiver the
/// senders in port (= neighbor-id) order. The in-process Network invokes
/// the sink inline during delivery; the shard coordinator replays its
/// workers' merged streams in the same order. Either way all callbacks
/// arrive on one thread, so implementations never need their own locking
/// and traces are bit-identical in-process and sharded.
class DeliveryObserver {
 public:
  virtual ~DeliveryObserver() = default;

  /// One delivered message: `from` sent `msg` to `to`, arriving in `round`.
  virtual void on_deliver(graph::NodeId from, graph::NodeId to,
                          const Message& msg, std::uint32_t round) = 0;
};

/// Wraps a callable as an observer — for tests and one-off tooling where a
/// dedicated class is overkill.
class CallbackObserver final : public DeliveryObserver {
 public:
  using Callback = std::function<void(graph::NodeId from, graph::NodeId to,
                                      const Message& msg,
                                      std::uint32_t round)>;

  explicit CallbackObserver(Callback cb) : cb_(std::move(cb)) {}

  void on_deliver(graph::NodeId from, graph::NodeId to, const Message& msg,
                  std::uint32_t round) override {
    cb_(from, to, msg, round);
  }

 private:
  Callback cb_;
};

/// First-class observer composition: fans every delivery out to each child
/// in registration order. This replaces ad-hoc lambda chaining — drivers
/// that want to add their own instrumentation on top of a caller-supplied
/// observer combine the two instead of wrapping closures.
class MultiObserver final : public DeliveryObserver {
 public:
  MultiObserver() = default;
  explicit MultiObserver(
      std::vector<std::shared_ptr<DeliveryObserver>> children)
      : children_(std::move(children)) {}

  void add(std::shared_ptr<DeliveryObserver> child) {
    if (child != nullptr) children_.push_back(std::move(child));
  }

  void on_deliver(graph::NodeId from, graph::NodeId to, const Message& msg,
                  std::uint32_t round) override {
    for (const auto& child : children_) {
      child->on_deliver(from, to, msg, round);
    }
  }

  /// Combines two possibly-null observers into one: returns the non-null
  /// one when the other is null, otherwise a MultiObserver invoking
  /// `first` then `second` per event.
  static std::shared_ptr<DeliveryObserver> combine(
      std::shared_ptr<DeliveryObserver> first,
      std::shared_ptr<DeliveryObserver> second) {
    if (first == nullptr) return second;
    if (second == nullptr) return first;
    return std::make_shared<MultiObserver>(
        std::vector<std::shared_ptr<DeliveryObserver>>{std::move(first),
                                                       std::move(second)});
  }

 private:
  std::vector<std::shared_ptr<DeliveryObserver>> children_;
};

}  // namespace qc::congest
