#include "graph/path_cache.hpp"

namespace p2prm::graph {

void PathCache::invalidate_if_stale(const ResourceGraph& graph) {
  const std::uint64_t now = graph.epoch();
  if (primed_ && now == seen_epoch_) return;
  if (!entries_.empty()) {
    entries_.clear();
    ++stats_.invalidations;
  }
  seen_epoch_ = now;
  primed_ = true;
}

const std::vector<PathCache::IdPath>& PathCache::id_paths(
    const ResourceGraph& graph, StateIndex start, StateIndex goal,
    SearchStats* stats) {
  invalidate_if_stale(graph);
  const Key key{start, goal};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++stats_.hits;
    if (stats) ++stats->cache_hits;
    return it->second;
  }
  ++stats_.misses;
  const auto paths = graph::bfs_paths(graph, start, goal, {}, stats);
  // After: bfs_paths assigns the whole SearchStats, so the miss must be
  // recorded on top of (not before) the traversal counters.
  if (stats) ++stats->cache_misses;
  std::vector<IdPath> ids;
  ids.reserve(paths.size());
  for (const auto& path : paths) {
    IdPath seq;
    seq.reserve(path.size());
    for (const ServiceEdge* e : path) seq.push_back(e->id);
    ids.push_back(std::move(seq));
  }
  return entries_.emplace(key, std::move(ids)).first->second;
}

void PathCache::clear() {
  entries_.clear();
  primed_ = false;
}

void PathCache::publish(obs::MetricsRegistry& registry,
                        obs::Labels labels) const {
  registry.counter("graph.path_cache.hits", labels).set(stats_.hits);
  registry.counter("graph.path_cache.misses", labels).set(stats_.misses);
  registry.counter("graph.path_cache.invalidations", labels)
      .set(stats_.invalidations);
  registry.gauge("graph.path_cache.entries", labels)
      .set(static_cast<double>(entries_.size()));
}

}  // namespace p2prm::graph
