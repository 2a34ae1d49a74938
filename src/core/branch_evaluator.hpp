#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace qc::core {

/// Parallel fan-out of independent oracle branches with a flat memo.
///
/// Every Grover iterate of the Section 2.4 framework applies the
/// Evaluation unitary to all populated basis branches at once, and each
/// branch is an independent deterministic CONGEST simulation — so the
/// branch set can be evaluated in any order, on any number of workers,
/// with bit-identical results. prefetch() evaluates a branch set exactly
/// once each across the pool; operator() then serves from the memo,
/// falling back to an inline evaluation on a miss. Results, and everything
/// derived from them (values, round counts, RunStats aggregation), are
/// independent of the thread count.
///
/// The memo is one slot per branch index, grown to the largest index
/// asked for, so a lookup is an index. Workers write disjoint slots of a
/// memo sized before the fan-out, so it needs no lock. Spans a worker
/// opens nest under the span that called prefetch().
///
/// The evaluation function must be safe to call from several threads at
/// once when num_threads > 1 (the WindowOracle is; a capture that mutates
/// unsynchronized state is not — run such oracles with num_threads = 1).
/// The evaluator itself is for one thread at a time.
template <typename Value>
class BranchEvaluator {
 public:
  using Eval = std::function<Value(std::size_t)>;

  /// `num_threads` = 0 means hardware_concurrency; 1 evaluates inline on
  /// the calling thread (no pool, exactly the historical serial path).
  explicit BranchEvaluator(Eval eval, std::uint32_t num_threads = 1)
      : eval_(std::move(eval)),
        num_threads_(num_threads != 0
                         ? num_threads
                         : std::max(1u, std::thread::hardware_concurrency())) {}

  /// Evaluates every not-yet-cached branch in `branches` exactly once,
  /// fanning out across the worker pool. The first exception thrown by a
  /// branch evaluation is rethrown here (on the calling thread) and
  /// remaining work is abandoned.
  void prefetch(const std::vector<std::size_t>& branches) {
    if (branches.empty()) return;
    const std::size_t top =
        *std::max_element(branches.begin(), branches.end());
    if (top >= slots_.size()) slots_.resize(top + 1);
    std::vector<std::size_t> missing;
    for (std::size_t b : branches) {
      if (slots_[b].state == kEmpty) {
        slots_[b].state = kPending;
        missing.push_back(b);
      }
    }
    const std::exception_ptr error = evaluate(missing);
    for (std::size_t b : missing) {
      if (slots_[b].state == kReady) {
        ++distinct_;
      } else {
        slots_[b].state = kEmpty;  // abandoned after an error
      }
    }
    if (error) std::rethrow_exception(error);
  }

  /// Convenience: prefetch the full domain [0, domain_size).
  void prefetch_all(std::size_t domain_size) {
    std::vector<std::size_t> all(domain_size);
    for (std::size_t i = 0; i < domain_size; ++i) all[i] = i;
    prefetch(all);
  }

  /// f(x), from the memo when present. A miss evaluates inline and
  /// caches (e.g. the quantum sampling loop after a partial prefetch).
  Value operator()(std::size_t x) {
    if (x < slots_.size() && slots_[x].state == kReady) {
      return slots_[x].value;
    }
    const Value v = eval_(x);
    if (x >= slots_.size()) slots_.resize(x + 1);
    slots_[x] = {v, kReady};
    ++distinct_;
    return v;
  }

  /// Number of distinct branches evaluated so far.
  std::uint64_t distinct_evaluations() const { return distinct_; }

 private:
  enum State : std::uint8_t { kEmpty, kPending, kReady };
  struct Slot {
    Value value{};
    State state = kEmpty;
  };

  /// Fills the slots of `missing`, inline or across the pool; returns the
  /// first exception a branch threw, after which the rest are abandoned.
  std::exception_ptr evaluate(const std::vector<std::size_t>& missing) {
    const std::uint32_t workers = static_cast<std::uint32_t>(
        std::min<std::size_t>(num_threads_, missing.size()));
    if (workers <= 1) {
      try {
        for (std::size_t b : missing) slots_[b] = {eval_(b), kReady};
      } catch (...) {
        return std::current_exception();
      }
      return nullptr;
    }

    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(num_threads_);
    const metrics::SpanParent parent = metrics::current_span();
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mu;
    for (std::uint32_t w = 0; w < workers; ++w) {
      pool_->submit([&] {
        const metrics::AdoptSpanParent adopt(parent);
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= missing.size()) return;
          try {
            slots_[missing[i]] = {eval_(missing[i]), kReady};
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mu);
            if (!error) error = std::current_exception();
            next.store(missing.size());  // abandon remaining branches
            return;
          }
        }
      });
    }
    pool_->wait_idle();
    return error;
  }

  Eval eval_;
  std::uint32_t num_threads_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Slot> slots_;
  std::uint64_t distinct_ = 0;
};

}  // namespace qc::core
