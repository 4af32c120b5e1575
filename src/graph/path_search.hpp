// Path search over the resource graph.
//
// Two engines:
//  * bfs_paths(): the paper's Figure 3 traversal, faithfully. A vertex is
//    marked visited when it is *expanded*; the solution vertex is never
//    expanded, so every BFS arrival at v_sol yields one candidate execution
//    sequence. On Figure 1 this enumerates exactly {e1,e2}, {e1,e3},
//    {e1,e4,e5,e8} — the three paths the text lists.
//  * all_simple_paths(): exhaustive DFS enumeration of simple paths up to a
//    hop bound; used by tests and by the "exhaustive" allocator ablation to
//    quantify what Fig. 3's visited-pruning gives up.
//
// Both take a feasibility predicate over the partial sequence so callers
// prune with QoS requirements during the walk, as Fig. 3 does.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "graph/resource_graph.hpp"

namespace p2prm::graph {

// One candidate execution sequence: service edges in invocation order.
using EdgePath = std::vector<const ServiceEdge*>;
// A read-only view of one sequence: an EdgePath or a slice of a buffer.
using EdgeSpan = std::span<const ServiceEdge* const>;

// Return false to prune the partial sequence (QoS cannot be met on any
// extension — the caller guarantees monotonicity).
using PrunePredicate = std::function<bool(const EdgePath& partial)>;

struct SearchStats {
  std::size_t vertices_popped = 0;
  std::size_t sequences_enqueued = 0;
  std::size_t candidates_found = 0;
  std::size_t pruned = 0;
  // PathCache bookkeeping: a hit answers the query from memoized sequences
  // without popping a single vertex; a miss falls through to the BFS above
  // (whose work lands in the counters above as usual).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

// Figure 3 BFS. Returns every candidate sequence reaching `goal` in the
// order discovered (the caller evaluates fairness and keeps the best, as
// the algorithm's f_max loop does). `accept` prunes partial sequences.
[[nodiscard]] std::vector<EdgePath> bfs_paths(const ResourceGraph& graph,
                                              StateIndex start, StateIndex goal,
                                              const PrunePredicate& accept = {},
                                              SearchStats* stats = nullptr);

// Every simple path (no repeated vertex) from start to goal with at most
// `max_hops` edges.
[[nodiscard]] std::vector<EdgePath> all_simple_paths(
    const ResourceGraph& graph, StateIndex start, StateIndex goal,
    std::size_t max_hops, const PrunePredicate& accept = {},
    SearchStats* stats = nullptr);

// True if `goal` is reachable from `start` at all (plain BFS, no pruning).
[[nodiscard]] bool reachable(const ResourceGraph& graph, StateIndex start,
                             StateIndex goal);

}  // namespace p2prm::graph
