// Task allocation (§4.3, Figure 3).
//
// "The Resource Manager uses the Breadth-First-Search (BFS) algorithm to
// search for services (edges) connecting the initial and final requested
// application states ... It prunes the possible solutions using the
// requested QoS requirements q ... Among the allocations that satisfy the
// QoS requirements, the algorithm returns the one that results to the
// maximum fairness of the load distribution among the peers."
//
// Besides the paper's algorithm we provide the baselines the experiments
// compare against (min-hop, random, least-loaded), the two streaming
// policies (max-util, det-stream) and an exhaustive simple-path enumerator
// used as an ablation upper bound for the BFS's visited-vertex pruning.
//
// Score every candidate, materialize the winner. An allocation walks every
// (source replica, acceptable target, path) candidate once and fills a
// compact score per candidate — execution time, feasibility, fairness and
// utilization after, and the hop (peer, ops-rate) pairs in one per-query
// buffer — without building anything per candidate. Every allocator picks
// from those scores, and only the winner is expanded through
// evaluate_path() and finalize(). enumerate_candidates() is the
// explanatory API: it materializes every candidate through the same
// per-hop cost routine, so each PathEvaluation carries exactly the
// doubles the scores were ranked by.
#pragma once

#include <memory>
#include <string>

#include "core/config.hpp"
#include "core/info_base.hpp"
#include "graph/path_search.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"

namespace p2prm::core {

struct AllocationRequest {
  util::TaskId task;
  QoSRequirements q;
  util::PeerId sink;  // requesting peer (media destination)
  util::SimTime now = 0;
  util::SimTime submitted_at = 0;

  [[nodiscard]] util::SimTime absolute_deadline() const {
    return submitted_at + q.deadline;
  }
};

// A fully-evaluated candidate allocation for one (source, target) pair and
// one path through G_r.
struct PathEvaluation {
  bool feasible = false;  // meets the deadline given current loads
  util::SimDuration exec_time = 0;
  util::PeerId source_peer;
  media::MediaObject object;
  media::MediaFormat target{};
  std::vector<graph::ServiceHop> hops;
  // (peer, +ops_rate) deltas this allocation would add.
  std::vector<std::pair<util::PeerId, double>> load_deltas;
  double fairness_after = 0.0;
  double max_utilization_after = 0.0;
};

struct AllocationResult {
  bool found = false;
  graph::ServiceGraph sg;  // composed, state == Composing
  std::vector<std::pair<util::PeerId, double>> load_deltas;
  double fairness_after = 0.0;
  util::SimDuration estimated_execution = 0;
  graph::SearchStats search{};
  std::size_t candidates_considered = 0;
  std::size_t candidates_feasible = 0;
  // On failure: "no-object" (unknown in this domain), "no-path"
  // (structurally impossible), or "deadline" (paths exist, none feasible).
  std::string failure_reason;
};

class Allocator {
 public:
  virtual ~Allocator() = default;
  [[nodiscard]] virtual AllocationResult allocate(
      const InfoBase& info, const net::Transport& network,
      const SystemConfig& config, const AllocationRequest& request,
      util::Rng& rng) const = 0;
  [[nodiscard]] virtual AllocatorKind kind() const = 0;
};

[[nodiscard]] std::unique_ptr<Allocator> make_allocator(AllocatorKind kind);

// ---- shared machinery (exposed for tests and benches) -----------------------

// Estimated compute time of `ops` on `peer`: current backlog plus the work
// at the peer's spare capacity under its effective load (§3.3's
// execution-time components, informed by profiler reports).
[[nodiscard]] util::SimDuration estimate_compute_time(
    const InfoBase& info, const SystemConfig& config, util::PeerId peer,
    double ops);

// Same, additionally blending the profiler-measured mean execution time of
// this service type on this peer (when available and enabled): the
// prediction never undercuts observed reality.
[[nodiscard]] util::SimDuration estimate_service_time(
    const InfoBase& info, const SystemConfig& config, util::PeerId peer,
    double ops, std::uint64_t type_key);

// Full evaluation of one candidate path (possibly empty = direct delivery).
[[nodiscard]] PathEvaluation evaluate_path(
    const InfoBase& info, const net::Transport& network,
    const SystemConfig& config, const AllocationRequest& request,
    const ObjectLocation& source, const media::MediaFormat& target,
    graph::EdgeSpan path);

// Every evaluated candidate across all (source replica, acceptable target,
// path) combinations, using the paper's BFS (or the exhaustive enumerator).
[[nodiscard]] std::vector<PathEvaluation> enumerate_candidates(
    const InfoBase& info, const net::Transport& network,
    const SystemConfig& config, const AllocationRequest& request,
    bool exhaustive, graph::SearchStats* stats);

// Builds the final ServiceGraph from a winning evaluation.
[[nodiscard]] AllocationResult finalize(const AllocationRequest& request,
                                        const PathEvaluation& winner);

}  // namespace p2prm::core
