#pragma once

// GraphRegistry — the daemon's resident-graph store.
//
// One entry per graph key (the path given to `load`): the Graph itself
// (owned CSR, read once from the file), whose shared EccEngine
// (Graph::ecc_engine) builds the compute-once eccentricity table on the
// first query that needs it and serves it forever after. Load-once
// semantics generalize the engine's std::call_once cache to the registry
// level: concurrent `load`s of the same key perform exactly one file load
// between them, and every caller gets the same ResidentGraph instance.
//
// Entries are handed out as shared_ptr, so `unload` only drops the
// registry's reference — queries already in flight keep their graph alive
// until they finish.

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/ecc_engine.hpp"
#include "graph/graph.hpp"

namespace qc::serve {

/// A loaded graph plus its per-graph compute-once caches.
class ResidentGraph {
 public:
  ResidentGraph(graph::Graph g, std::string format, double load_ms)
      : graph_(std::move(g)),
        engine_(graph_.ecc_engine()),
        format_(std::move(format)),
        load_ms_(load_ms) {}

  const graph::Graph& graph() const { return graph_; }
  /// The graph's shared engine: the same table any other reader of this
  /// Graph sees.
  const graph::EccEngine& engine() const { return *engine_; }
  const std::string& format() const { return format_; }
  double load_ms() const { return load_ms_; }

  /// Exact girth, computed once per resident graph (O(m) BFS on first
  /// call, cached afterwards — same contract as the eccentricity table).
  std::uint32_t girth() const;

 private:
  graph::Graph graph_;
  std::shared_ptr<const graph::EccEngine> engine_;  ///< graph_.ecc_engine()
  std::string format_;
  double load_ms_ = 0.0;
  mutable std::once_flag girth_once_;
  mutable std::uint32_t girth_ = 0;
};

class GraphRegistry {
 public:
  /// Returns the resident graph for `path`, loading it exactly once: the
  /// first caller loads (outside the registry lock — a slow load never
  /// blocks lookups of other keys), concurrent callers for the same key
  /// block on the same load, later callers hit the cache. A failed load is
  /// forgotten, so a fixed file can be retried; the failure is rethrown to
  /// every caller waiting on that attempt.
  std::shared_ptr<ResidentGraph> load(const std::string& path);

  /// The resident graph for `path`, or nullptr when it is not loaded
  /// (including a load still in flight or one that failed). Never
  /// triggers a load, never throws.
  std::shared_ptr<ResidentGraph> get(const std::string& path) const;

  /// Drops `path` from the registry. Returns false when it was not
  /// resident. In-flight queries holding the shared_ptr are unaffected.
  bool unload(const std::string& path);

  /// Keys of all fully loaded graphs, sorted.
  std::vector<std::string> keys() const;

  /// Number of actual file loads performed (cache misses). A second
  /// `load` of a resident key does not increment this — the counter the
  /// load-once tests assert on.
  std::uint64_t loads_performed() const;

 private:
  using Future = std::shared_future<std::shared_ptr<ResidentGraph>>;
  /// Slots live behind shared_ptr so a failed loader can erase exactly its
  /// own attempt by identity (an unload+reload may have replaced the map
  /// entry while the load was running).
  using Slot = std::shared_ptr<Future>;

  mutable std::mutex mu_;
  std::map<std::string, Slot> slots_;
  std::uint64_t loads_performed_ = 0;
};

}  // namespace qc::serve
