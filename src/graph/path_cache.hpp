// Load-epoch-invalidated memoization of Figure 3 BFS path enumeration.
//
// The allocator re-runs the same (start, goal) enumeration for every task
// query between two load reports; at production scale that BFS dominates
// the control-plane hot path. The cache keys on the (start, goal) state
// pair and stores the enumerated candidate sequences as *service ids*, not
// edge pointers: callers resolve them against the live graph, so they
// always observe current ServiceEdge loads.
//
// Invalidation is wholesale by graph epoch: any edge insertion/removal or
// ServiceEdge load update bumps ResourceGraph::epoch(), and the first query
// under a new epoch drops every entry. This makes the cached result
// *exactly* the unpruned bfs_paths() answer, byte for byte, at all times —
// the property path_cache_test.cpp checks under randomized interleavings.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/path_search.hpp"
#include "graph/resource_graph.hpp"
#include "obs/metrics_registry.hpp"

namespace p2prm::graph {

// House-style stats struct (cf. RmStats, NetworkStats): cheap counters the
// cache bumps inline, snapshotted via stats()/publish().
struct PathCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  // Times the whole cache was dropped because the graph epoch moved.
  std::uint64_t invalidations = 0;
};

class PathCache {
 public:

  using IdPath = std::vector<util::ServiceId>;

  // Unpruned Figure 3 enumeration from `start` to `goal`, served from the
  // cache when the graph epoch has not moved since the entry was computed.
  // Identical (including order) to graph::bfs_paths(graph, start, goal),
  // as service-id sequences: ids are stable, so resolving each with
  // graph.service() reads current ServiceEdge state, and a hit copies
  // nothing. The reference stays valid until the next call on this cache.
  // On a hit, only stats->cache_hits is touched; on a miss the underlying
  // search fills the traversal counters as usual.
  [[nodiscard]] const std::vector<IdPath>& id_paths(
      const ResourceGraph& graph, StateIndex start, StateIndex goal,
      SearchStats* stats = nullptr);

  void clear();
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const PathCacheStats& stats() const { return stats_; }
  // Writes graph.path_cache.* (hit/miss/invalidation counters plus an
  // entries gauge) under `labels`.
  void publish(obs::MetricsRegistry& registry, obs::Labels labels = {}) const;

 private:
  struct Key {
    StateIndex start;
    StateIndex goal;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return k.start * 0x9e3779b97f4a7c15ULL ^ k.goal;
    }
  };
  void invalidate_if_stale(const ResourceGraph& graph);

  std::unordered_map<Key, std::vector<IdPath>, KeyHash> entries_;
  std::uint64_t seen_epoch_ = 0;
  bool primed_ = false;  // false until the first query records an epoch
  PathCacheStats stats_;
};

}  // namespace p2prm::graph
