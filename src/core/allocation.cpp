#include "core/allocation.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <span>
#include <utility>

namespace p2prm::core {

util::SimDuration estimate_compute_time(const InfoBase& info,
                                        const SystemConfig& config,
                                        util::PeerId peer, double ops) {
  const auto* rec = info.domain().member(peer);
  if (rec == nullptr) return util::kTimeInfinity;
  const double capacity = rec->spec.capacity_ops_per_s;
  const double spare = std::max(capacity - info.effective_load(peer),
                                capacity * config.min_spare_capacity_fraction);
  const double backlog_s = rec->last_sample.backlog_seconds;
  return util::from_seconds(backlog_s + ops / spare);
}

util::SimDuration estimate_service_time(const InfoBase& info,
                                        const SystemConfig& config,
                                        util::PeerId peer, double ops,
                                        std::uint64_t type_key) {
  const util::SimDuration model = estimate_compute_time(info, config, peer, ops);
  if (!config.use_measured_execution_times) return model;
  const double measured_s = info.measured_execution_s(peer, type_key);
  if (measured_s < 0.0) return model;
  return std::max(model, util::from_seconds(measured_s));
}

namespace {

using HopDelta = std::pair<util::PeerId, double>;

[[nodiscard]] std::size_t stream_bytes(const media::MediaFormat& format,
                                       double media_seconds) {
  return static_cast<std::size_t>(static_cast<double>(format.bitrate_kbps) *
                                  1000.0 / 8.0 * media_seconds);
}

// The per-hop cost routine every evaluation shares: the transfer of the
// hop's input from `prev`, the compute at the host's spare capacity, and
// the ops rate a realtime stream adds to the host.
struct HopCost {
  double rate = 0.0;  // ops per media-second
  double ops = 0.0;   // over the whole object
  util::SimDuration transfer = 0;
  util::SimDuration compute = 0;
};

[[nodiscard]] HopCost hop_cost(const InfoBase& info,
                               const net::Transport& network,
                               const SystemConfig& config, util::PeerId prev,
                               const graph::ServiceEdge& e,
                               double media_seconds) {
  HopCost c;
  c.rate = media::transcode_ops_per_media_second(e.type, config.cost_model);
  c.ops = c.rate * media_seconds;
  c.transfer = network.estimate_delay(
      prev, e.peer, stream_bytes(e.type.input, media_seconds));
  c.compute =
      estimate_service_time(info, config, e.peer, c.ops, e.type.type_key());
  return c;
}

// Cost of the partial pipeline: transfer into hop 1, then per-hop compute
// and inter-hop transfers; on_hop(edge, cost) sees every hop. Excludes the
// final hop->sink transfer, so it is monotone in path length and doubles
// as the exhaustive walk's pruner.
template <typename OnHop>
[[nodiscard]] util::SimDuration partial_cost(
    const InfoBase& info, const net::Transport& network,
    const SystemConfig& config, util::PeerId source_peer,
    double media_seconds, graph::EdgeSpan path, OnHop&& on_hop) {
  util::SimDuration total = 0;
  util::PeerId prev = source_peer;
  for (const graph::ServiceEdge* e : path) {
    const HopCost c = hop_cost(info, network, config, prev, *e, media_seconds);
    total += c.transfer + c.compute;
    on_hop(*e, c);
    prev = e->peer;
  }
  return total;
}

// End-to-end estimate of one candidate: the pipeline plus the final
// delivery of `target` to the sink.
template <typename OnHop>
[[nodiscard]] util::SimDuration execution_time(
    const InfoBase& info, const net::Transport& network,
    const SystemConfig& config, const AllocationRequest& request,
    const ObjectLocation& source, const media::MediaFormat& target,
    graph::EdgeSpan path, OnHop&& on_hop) {
  const double media_seconds = source.object.duration_s;
  const util::SimDuration pipeline =
      partial_cost(info, network, config, source.peer, media_seconds, path,
                   std::forward<OnHop>(on_hop));
  const util::PeerId last = path.empty() ? source.peer : path.back()->peer;
  return pipeline + network.estimate_delay(
                        last, request.sink,
                        stream_bytes(target, media_seconds));
}

[[nodiscard]] bool meets_deadline(const AllocationRequest& request,
                                  util::SimDuration exec_time) {
  return request.now + exec_time <= request.absolute_deadline();
}

// Utilization of the touched peers once `deltas` land, each hop judged on
// its own delta; peers outside the domain are skipped.
struct UtilizationAfter {
  double max = 0.0;
  double sum = 0.0;
};

[[nodiscard]] UtilizationAfter utilization_after(
    const InfoBase& info, std::span<const HopDelta> deltas) {
  UtilizationAfter u;
  for (const auto& [peer, delta] : deltas) {
    const auto* rec = info.domain().member(peer);
    if (rec == nullptr) continue;
    const double after =
        (info.effective_load(peer) + delta) / rec->spec.capacity_ops_per_s;
    u.max = std::max(u.max, after);
    u.sum += after;
  }
  return u;
}

// Calls visit(source, target, path) for every candidate of `request` in
// enumeration order — each source replica, each acceptable target, each
// path of G_r between them (empty = direct delivery) — and returns the
// summed search stats. A path is valid only during its visit.
template <typename Visit>
graph::SearchStats for_each_candidate(const InfoBase& info,
                                      const net::Transport& network,
                                      const SystemConfig& config,
                                      const AllocationRequest& request,
                                      bool exhaustive, Visit&& visit) {
  graph::SearchStats total;
  const auto* locs = info.locations(request.q.object);
  if (locs == nullptr) return total;
  const auto& gr = info.resource_graph();
  graph::EdgePath resolved;  // one cached id path, resolved against gr

  for (const ObjectLocation& source : *locs) {
    for (const media::MediaFormat& target : request.q.acceptable_formats) {
      // Direct delivery: object already in an acceptable format.
      if (source.object.format == target) {
        visit(source, target, graph::EdgeSpan{});
        continue;
      }
      const auto v_init = gr.find_state(source.object.format);
      const auto v_sol = gr.find_state(target);
      if (!v_init || !v_sol) continue;

      // QoS feasibility is applied post-hoc (meets_deadline on the
      // finished candidate) rather than as an in-BFS prune: pruning
      // interacts with Fig. 3's visited-on-expansion rule — an infeasible
      // partial arriving first can claim a vertex a feasible one would
      // have expanded — so the enumeration result would depend on the
      // deadline and could never be memoized. Unpruned enumeration depends
      // only on graph structure, which is what makes the path cache's
      // answers exactly interchangeable with fresh searches. The
      // exhaustive ablation keeps its in-walk prune: DFS over simple paths
      // visits every extension independently, so there pruning ==
      // post-filter.
      graph::SearchStats s;
      if (!exhaustive && config.enable_path_cache) {
        for (const auto& ids :
             info.path_cache().id_paths(gr, *v_init, *v_sol, &s)) {
          resolved.clear();
          for (const util::ServiceId id : ids) {
            resolved.push_back(&gr.service(id));
          }
          visit(source, target, graph::EdgeSpan{resolved});
        }
      } else {
        std::vector<graph::EdgePath> paths;
        if (exhaustive) {
          const auto prune = [&](const graph::EdgePath& partial) {
            const auto cost =
                partial_cost(info, network, config, source.peer,
                             source.object.duration_s, partial,
                             [](const graph::ServiceEdge&, const HopCost&) {});
            return meets_deadline(request, cost);
          };
          paths = graph::all_simple_paths(
              gr, *v_init, *v_sol, config.exhaustive_max_hops, prune, &s);
        } else {
          paths = graph::bfs_paths(gr, *v_init, *v_sol, {}, &s);
        }
        for (const auto& path : paths) {
          visit(source, target, graph::EdgeSpan{path});
        }
      }
      total.vertices_popped += s.vertices_popped;
      total.sequences_enqueued += s.sequences_enqueued;
      total.candidates_found += s.candidates_found;
      total.pruned += s.pruned;
      total.cache_hits += s.cache_hits;
      total.cache_misses += s.cache_misses;
    }
  }
  return total;
}

// The compact score of one candidate: everything a pick rule reads, with
// its hops kept as offsets into the query's shared buffers.
struct Score {
  const ObjectLocation* source = nullptr;
  const media::MediaFormat* target = nullptr;
  std::uint32_t first_hop = 0;
  std::uint32_t hop_count = 0;
  bool feasible = false;
  util::SimDuration exec_time = 0;
  double fairness_after = 0.0;
  UtilizationAfter utilization;
};

// Every candidate of one query, scored in enumeration order; the hop
// buffers hold all candidates' hops back to back.
struct Scores {
  std::vector<Score> candidates;
  std::vector<HopDelta> hops;                    // (peer, +ops_rate)
  std::vector<const graph::ServiceEdge*> edges;  // parallel to hops
  graph::SearchStats search;
  std::size_t feasible = 0;

  [[nodiscard]] std::span<const HopDelta> hops_of(const Score& c) const {
    return std::span(hops).subspan(c.first_hop, c.hop_count);
  }
  [[nodiscard]] graph::EdgeSpan path_of(const Score& c) const {
    return graph::EdgeSpan(edges).subspan(c.first_hop, c.hop_count);
  }
};

Scores score_candidates(const InfoBase& info, const net::Transport& network,
                        const SystemConfig& config,
                        const AllocationRequest& request, bool exhaustive) {
  Scores out;
  out.search = for_each_candidate(
      info, network, config, request, exhaustive,
      [&](const ObjectLocation& source, const media::MediaFormat& target,
          graph::EdgeSpan path) {
        Score c;
        c.source = &source;
        c.target = &target;
        c.first_hop = static_cast<std::uint32_t>(out.hops.size());
        c.hop_count = static_cast<std::uint32_t>(path.size());
        c.exec_time = execution_time(
            info, network, config, request, source, target, path,
            [&out](const graph::ServiceEdge& e, const HopCost& h) {
              out.hops.emplace_back(e.peer, h.rate);
              out.edges.push_back(&e);
            });
        c.feasible = meets_deadline(request, c.exec_time);
        const std::span<const HopDelta> deltas = out.hops_of(c);
        c.fairness_after = info.fairness().index_with(deltas);
        c.utilization = utilization_after(info, deltas);
        if (c.feasible) ++out.feasible;
        out.candidates.push_back(c);
      });
  return out;
}

}  // namespace

PathEvaluation evaluate_path(const InfoBase& info, const net::Transport& network,
                             const SystemConfig& config,
                             const AllocationRequest& request,
                             const ObjectLocation& source,
                             const media::MediaFormat& target,
                             graph::EdgeSpan path) {
  PathEvaluation ev;
  ev.source_peer = source.peer;
  ev.object = source.object;
  ev.target = target;
  ev.hops.reserve(path.size());
  ev.load_deltas.reserve(path.size());
  ev.exec_time = execution_time(
      info, network, config, request, source, target, path,
      [&ev](const graph::ServiceEdge& e, const HopCost& h) {
        graph::ServiceHop hop;
        hop.service = e.id;
        hop.peer = e.peer;
        hop.type = e.type;
        hop.estimated_ops = h.ops;
        hop.estimated_transfer_time = h.transfer;
        hop.estimated_compute_time = h.compute;
        ev.hops.push_back(std::move(hop));
        // Streaming at realtime rate consumes ops/media-second continuously.
        ev.load_deltas.emplace_back(e.peer, h.rate);
      });
  ev.feasible = meets_deadline(request, ev.exec_time);
  ev.fairness_after = info.fairness().index_with(ev.load_deltas);
  ev.max_utilization_after = utilization_after(info, ev.load_deltas).max;
  return ev;
}

std::vector<PathEvaluation> enumerate_candidates(
    const InfoBase& info, const net::Transport& network,
    const SystemConfig& config, const AllocationRequest& request,
    bool exhaustive, graph::SearchStats* stats) {
  std::vector<PathEvaluation> out;
  const graph::SearchStats search = for_each_candidate(
      info, network, config, request, exhaustive,
      [&](const ObjectLocation& source, const media::MediaFormat& target,
          graph::EdgeSpan path) {
        out.push_back(evaluate_path(info, network, config, request, source,
                                    target, path));
      });
  if (stats) *stats = search;
  return out;
}

AllocationResult finalize(const AllocationRequest& request,
                          const PathEvaluation& winner) {
  AllocationResult result;
  result.found = true;
  result.fairness_after = winner.fairness_after;
  result.estimated_execution = winner.exec_time;
  result.load_deltas = winner.load_deltas;
  result.sg = graph::ServiceGraph(request.task, winner.source_peer,
                                  winner.object.id, request.sink,
                                  winner.object.format, winner.target);
  for (const auto& hop : winner.hops) result.sg.add_hop(hop);
  assert(result.sg.chain_consistent());
  return result;
}

namespace {

// Scans the feasible candidates in enumeration order and replaces the best
// so far only when better(c, best) holds, so the earliest of tied
// candidates wins.
template <typename Better>
const Score& best_feasible(const Scores& scores, Better better) {
  const Score* best = nullptr;
  for (const Score& c : scores.candidates) {
    if (c.feasible && (best == nullptr || better(c, *best))) best = &c;
  }
  return *best;
}

// Tie-break shared by the deterministic streaming policies: fewer hops,
// then lexicographically smaller hop peer ids. Candidate enumeration order
// is itself deterministic, but this makes the tie-break explicit instead
// of relying on "first enumerated wins".
[[nodiscard]] bool shorter_or_lex_less(const Scores& scores, const Score& a,
                                       const Score& b) {
  if (a.hop_count != b.hop_count) return a.hop_count < b.hop_count;
  const auto ha = scores.hops_of(a);
  const auto hb = scores.hops_of(b);
  for (std::size_t i = 0; i < ha.size(); ++i) {
    if (ha[i].first != hb[i].first) return ha[i].first < hb[i].first;
  }
  return false;
}

// The allocators differ only in how they pick among the feasible
// candidates (at least one exists when a pick rule runs).
using PickRule = const Score& (*)(const Scores&, util::Rng&);

// Fig. 3's f_max loop: keep the allocation with maximum fairness.
const Score& pick_max_fairness(const Scores& scores, util::Rng&) {
  return best_feasible(scores, [](const Score& c, const Score& best) {
    return c.fairness_after > best.fairness_after;
  });
}

const Score& pick_min_hop(const Scores& scores, util::Rng&) {
  return best_feasible(scores, [](const Score& c, const Score& best) {
    return c.hop_count < best.hop_count;
  });
}

const Score& pick_random(const Scores& scores, util::Rng& rng) {
  std::size_t k = rng.below(scores.feasible);
  const Score* pick = nullptr;
  for (const Score& c : scores.candidates) {
    if (c.feasible && k-- == 0) {
      pick = &c;
      break;
    }
  }
  return *pick;
}

const Score& pick_least_loaded(const Scores& scores, util::Rng&) {
  return best_feasible(scores, [](const Score& c, const Score& best) {
    return c.utilization.max < best.utilization.max;
  });
}

// Utilization-maximizing placement after the P2P live-streaming scheme:
// consolidate work onto the peers already carrying load (best-fit packing)
// so idle capacity stays in one piece for future chains. Score = mean
// post-assignment utilization of the touched peers; direct delivery
// touches none and wastes nothing, so it scores above every transcoding
// chain.
const Score& pick_max_util(const Scores& scores, util::Rng&) {
  const auto mean_util = [](const Score& c) {
    if (c.hop_count == 0) return std::numeric_limits<double>::infinity();
    return c.utilization.sum / static_cast<double>(c.hop_count);
  };
  return best_feasible(scores, [&](const Score& c, const Score& best) {
    const double score = mean_util(c);
    const double best_score = mean_util(best);
    return score > best_score ||
           (score == best_score && shorter_or_lex_less(scores, c, best));
  });
}

// Deterministic near-optimal chain placement: minimize estimated
// completion time outright (the greedy bound from the deterministic P2P
// streaming line of work), with fully ordered tie-breaks — fewer hops,
// then lexicographic hop peer ids — so the choice never depends on
// enumeration order or the RNG.
const Score& pick_det_stream(const Scores& scores, util::Rng&) {
  return best_feasible(scores, [&](const Score& c, const Score& best) {
    return c.exec_time < best.exec_time ||
           (c.exec_time == best.exec_time &&
            shorter_or_lex_less(scores, c, best));
  });
}

// Every allocator: score every candidate, let the kind's pick rule choose
// among the feasible ones, and materialize only the winner.
class ScoringAllocator final : public Allocator {
 public:
  ScoringAllocator(AllocatorKind kind, PickRule pick)
      : kind_(kind), pick_(pick) {}

  AllocationResult allocate(const InfoBase& info, const net::Transport& network,
                            const SystemConfig& config,
                            const AllocationRequest& request,
                            util::Rng& rng) const override {
    const Scores scores =
        score_candidates(info, network, config, request,
                         /*exhaustive=*/kind_ == AllocatorKind::Exhaustive);
    AllocationResult result;
    if (scores.feasible == 0) {
      if (info.locations(request.q.object) == nullptr) {
        result.failure_reason = "no-object";
      } else if (scores.candidates.empty() && scores.search.pruned == 0) {
        result.failure_reason = "no-path";
      } else {
        // Either complete candidates missed the deadline, or QoS pruning
        // cut every partial sequence before it could complete.
        result.failure_reason = "deadline";
      }
    } else {
      const Score& winner = pick_(scores, rng);
      result = finalize(request,
                        evaluate_path(info, network, config, request,
                                      *winner.source, *winner.target,
                                      scores.path_of(winner)));
    }
    result.search = scores.search;
    result.candidates_considered = scores.candidates.size();
    result.candidates_feasible = scores.feasible;
    return result;
  }
  AllocatorKind kind() const override { return kind_; }

 private:
  AllocatorKind kind_;
  PickRule pick_;
};

}  // namespace

std::unique_ptr<Allocator> make_allocator(AllocatorKind kind) {
  switch (kind) {
    case AllocatorKind::PaperBfs:
    case AllocatorKind::Exhaustive:
      return std::make_unique<ScoringAllocator>(kind, pick_max_fairness);
    case AllocatorKind::MinHop:
      return std::make_unique<ScoringAllocator>(kind, pick_min_hop);
    case AllocatorKind::Random:
      return std::make_unique<ScoringAllocator>(kind, pick_random);
    case AllocatorKind::LeastLoaded:
      return std::make_unique<ScoringAllocator>(kind, pick_least_loaded);
    case AllocatorKind::MaxUtil:
      return std::make_unique<ScoringAllocator>(kind, pick_max_util);
    case AllocatorKind::DetStream:
      return std::make_unique<ScoringAllocator>(kind, pick_det_stream);
  }
  throw std::invalid_argument("make_allocator: bad kind");
}

}  // namespace p2prm::core
