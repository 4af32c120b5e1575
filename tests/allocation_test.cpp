// Unit tests for the Fig. 3 allocation algorithm and its baselines,
// exercised directly against an InfoBase (no live overlay needed).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "core/allocation.hpp"
#include "media/catalog.hpp"

namespace p2prm::core {
namespace {

using util::PeerId;
using util::ServiceId;
using util::seconds;

struct Fixture {
  sim::Simulator sim{1};
  net::Topology topo{};
  net::Network net{sim, topo};
  SystemConfig config{};
  util::Rng rng{42};
  media::Figure1Catalog cat = media::figure1_catalog();
  InfoBase info{util::DomainId{0}, PeerId{1}};
  media::MediaObject object;

  static constexpr std::uint64_t kSource = 10;
  static constexpr std::uint64_t kSink = 20;

  Fixture() {
    // Peers 1..8 host e1..e8; 10 is the source, 20 the sink.
    for (std::uint64_t p : std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8,
                                                      kSource, kSink}) {
      overlay::PeerSpec spec;
      spec.id = PeerId{p};
      spec.capacity_ops_per_s = 50e6;
      topo.place_at(spec.id, {static_cast<double>(p), 0.0});
      info.add_member(spec, 0);
    }
    PeerAnnounce announce;
    announce.spec.id = PeerId{kSource};
    object = media::make_object(util::ObjectId{1}, cat.v1, 10.0, rng);
    announce.objects = {object};
    info.add_inventory(announce);
    for (std::size_t i = 0; i < cat.edges.size(); ++i) {
      PeerAnnounce svc;
      svc.spec.id = PeerId{i + 1};
      svc.services = {ServiceOffering{ServiceId{i + 1}, cat.edges[i]}};
      info.add_inventory(svc);
    }
  }

  AllocationRequest request(util::SimDuration deadline = seconds(60)) {
    AllocationRequest r;
    r.task = util::TaskId{1};
    r.q.object = object.id;
    r.q.acceptable_formats = {cat.v3};
    r.q.deadline = deadline;
    r.sink = PeerId{kSink};
    r.now = 0;
    r.submitted_at = 0;
    return r;
  }

  void set_load(std::uint64_t peer, double load_ops, double backlog_s = 0.0) {
    ProfilerReport report;
    report.sample.smoothed_load_ops = load_ops;
    report.sample.backlog_seconds = backlog_s;
    report.sample.smoothed_utilization = load_ops / 50e6;
    info.record_report(PeerId{peer}, report, 0);
  }

  AllocationResult run(AllocatorKind kind,
                       util::SimDuration deadline = seconds(60)) {
    return make_allocator(kind)->allocate(info, net, config, request(deadline),
                                          rng);
  }
};

TEST(Allocation, PaperBfsFindsConsistentServiceGraph) {
  Fixture fx;
  const auto result = fx.run(AllocatorKind::PaperBfs);
  ASSERT_TRUE(result.found) << result.failure_reason;
  EXPECT_TRUE(result.sg.chain_consistent());
  EXPECT_EQ(result.sg.source_peer(), PeerId{Fixture::kSource});
  EXPECT_EQ(result.sg.sink_peer(), PeerId{Fixture::kSink});
  EXPECT_EQ(result.sg.source_format(), fx.cat.v1);
  EXPECT_EQ(result.sg.target_format(), fx.cat.v3);
  // Three candidates as in the paper's example.
  EXPECT_EQ(result.candidates_considered, 3u);
  EXPECT_GT(result.estimated_execution, 0);
}

TEST(Allocation, FairnessSteersAwayFromLoadedPeer) {
  // Note: with everyone idle, fairness maximization legitimately prefers
  // the 4-hop path (it spreads load over more peers). The property under
  // test is only that a hot peer is avoided when an alternative exists.
  for (const std::uint64_t hot : {2ull, 3ull}) {
    Fixture fx;
    fx.set_load(hot, 40e6);
    const auto result = fx.run(AllocatorKind::PaperBfs);
    ASSERT_TRUE(result.found);
    for (const auto& hop : result.sg.hops()) {
      EXPECT_NE(hop.peer, PeerId{hot});
    }
  }
}

TEST(Allocation, FairnessPrefersSpreadingOverFewHops) {
  // The paper's objective is fairness, not efficiency: on an idle domain
  // the 4-hop chain {e1,e4,e5,e8} loads four peers lightly and wins over
  // the 2-hop chains that load two peers heavily.
  Fixture fx;
  const auto result = fx.run(AllocatorKind::PaperBfs);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.sg.hop_count(), 4u);
  const auto min_hop = fx.run(AllocatorKind::MinHop);
  ASSERT_TRUE(min_hop.found);
  EXPECT_LE(min_hop.fairness_after, result.fairness_after + 1e-12);
}

TEST(Allocation, ReturnsMaxFairnessAmongFeasible) {
  Fixture fx;
  graph::SearchStats stats;
  const auto candidates = enumerate_candidates(fx.info, fx.net, fx.config,
                                               fx.request(), false, &stats);
  ASSERT_EQ(candidates.size(), 3u);
  const auto result = fx.run(AllocatorKind::PaperBfs);
  ASSERT_TRUE(result.found);
  for (const auto& c : candidates) {
    if (c.feasible) {
      EXPECT_GE(result.fairness_after, c.fairness_after - 1e-12);
    }
  }
}

TEST(Allocation, ImpossibleDeadlineReportsDeadline) {
  Fixture fx;
  const auto result = fx.run(AllocatorKind::PaperBfs, util::milliseconds(1));
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.failure_reason, "deadline");
}

TEST(Allocation, UnknownObjectReportsNoObject) {
  Fixture fx;
  auto req = fx.request();
  req.q.object = util::ObjectId{777};
  const auto result = make_allocator(AllocatorKind::PaperBfs)
                          ->allocate(fx.info, fx.net, fx.config, req, fx.rng);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.failure_reason, "no-object");
}

TEST(Allocation, UnreachableTargetReportsNoPath) {
  Fixture fx;
  auto req = fx.request();
  // A format nobody can produce.
  req.q.acceptable_formats = {
      media::MediaFormat{media::Codec::MJPEG, media::kRes176x144, 16}};
  const auto result = make_allocator(AllocatorKind::PaperBfs)
                          ->allocate(fx.info, fx.net, fx.config, req, fx.rng);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.failure_reason, "no-path");
}

TEST(Allocation, DirectDeliveryWhenSourceFormatAcceptable) {
  Fixture fx;
  auto req = fx.request();
  req.q.acceptable_formats = {fx.cat.v1};
  const auto result = make_allocator(AllocatorKind::PaperBfs)
                          ->allocate(fx.info, fx.net, fx.config, req, fx.rng);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.sg.hop_count(), 0u);
  EXPECT_TRUE(result.sg.chain_consistent());
}

TEST(Allocation, MinHopPrefersShortestChain) {
  Fixture fx;
  const auto result = fx.run(AllocatorKind::MinHop);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.sg.hop_count(), 2u);  // never the 4-hop path
}

TEST(Allocation, LeastLoadedMinimizesPeakUtilization) {
  Fixture fx;
  fx.set_load(2, 45e6);
  const auto result = fx.run(AllocatorKind::LeastLoaded);
  ASSERT_TRUE(result.found);
  for (const auto& hop : result.sg.hops()) {
    EXPECT_NE(hop.peer, PeerId{2});
  }
}

TEST(Allocation, RandomIsDeterministicGivenSeedAndFeasible) {
  Fixture fx1, fx2;
  const auto a = fx1.run(AllocatorKind::Random);
  const auto b = fx2.run(AllocatorKind::Random);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  ASSERT_EQ(a.sg.hop_count(), b.sg.hop_count());
  for (std::size_t i = 0; i < a.sg.hop_count(); ++i) {
    EXPECT_EQ(a.sg.hops()[i].peer, b.sg.hops()[i].peer);
  }
}

TEST(Allocation, ExhaustiveNeverWorseThanPaperBfs) {
  Fixture fx;
  const auto bfs = fx.run(AllocatorKind::PaperBfs);
  const auto full = fx.run(AllocatorKind::Exhaustive);
  ASSERT_TRUE(bfs.found);
  ASSERT_TRUE(full.found);
  EXPECT_GE(full.fairness_after, bfs.fairness_after - 1e-12);
  EXPECT_GE(full.candidates_considered, bfs.candidates_considered);
}

TEST(Allocation, EstimateComputeTimeShape) {
  Fixture fx;
  const double ops = 50e6;  // one second of work on an idle 50 Mops peer
  const auto idle = estimate_compute_time(fx.info, fx.config, PeerId{4}, ops);
  EXPECT_EQ(idle, seconds(1));
  fx.set_load(4, 25e6, 2.0);  // half loaded + 2s backlog
  const auto loaded = estimate_compute_time(fx.info, fx.config, PeerId{4}, ops);
  EXPECT_EQ(loaded, seconds(4));  // 2s backlog + ops at 25 Mops spare
  EXPECT_EQ(estimate_compute_time(fx.info, fx.config, PeerId{99}, ops),
            util::kTimeInfinity);
}

TEST(Allocation, SpareCapacityFloorPreventsDivergence) {
  Fixture fx;
  fx.set_load(4, 50e6);  // fully loaded
  const auto t = estimate_compute_time(fx.info, fx.config, PeerId{4}, 50e6);
  // Floor: 10% of capacity -> 10 seconds, not infinity.
  EXPECT_EQ(t, seconds(10));
}

TEST(Allocation, MeasuredExecutionTimesRaiseEstimates) {
  Fixture fx;
  const std::uint64_t key = fx.cat.edges[0].type_key();
  const double ops = 50e6;  // 1s model estimate on the idle 50 Mops peer 1
  const auto model =
      estimate_service_time(fx.info, fx.config, PeerId{1}, ops, key);
  EXPECT_EQ(model, seconds(1));
  // The profiler reports this conversion actually takes 4s on peer 1.
  ProfilerReport report;
  report.measured_exec_s = {{key, 4.0}};
  fx.info.record_report(PeerId{1}, report, 0);
  EXPECT_EQ(estimate_service_time(fx.info, fx.config, PeerId{1}, ops, key),
            seconds(4));
  // Measurements *below* the model never lower the estimate (max-blend).
  ProfilerReport optimistic;
  optimistic.measured_exec_s = {{key, 0.1}};
  fx.info.record_report(PeerId{1}, optimistic, 0);
  EXPECT_EQ(estimate_service_time(fx.info, fx.config, PeerId{1}, ops, key),
            seconds(1));
  // Ablation flag: off -> pure model.
  ProfilerReport slow;
  slow.measured_exec_s = {{key, 4.0}};
  fx.info.record_report(PeerId{1}, slow, 0);
  auto config = fx.config;
  config.use_measured_execution_times = false;
  EXPECT_EQ(estimate_service_time(fx.info, config, PeerId{1}, ops, key),
            seconds(1));
}

TEST(Allocation, CommittedLoadVisibleToNextAllocation) {
  Fixture fx;
  const auto first = fx.run(AllocatorKind::PaperBfs);
  ASSERT_TRUE(first.found);
  // Commit the first allocation's loads as the RM would.
  for (const auto& [peer, rate] : first.load_deltas) {
    fx.info.commit_load(peer, rate);
  }
  const auto second = fx.run(AllocatorKind::PaperBfs);
  ASSERT_TRUE(second.found);
  // The second allocation must steer around the peers the first loaded
  // wherever alternatives exist: peer 1 (e1) is unavoidable, but the
  // downstream hops have disjoint alternatives.
  std::set<std::uint64_t> first_peers, second_peers;
  for (std::size_t i = 1; i < first.sg.hop_count(); ++i) {
    first_peers.insert(first.sg.hops()[i].peer.value());
  }
  for (std::size_t i = 1; i < second.sg.hop_count(); ++i) {
    second_peers.insert(second.sg.hops()[i].peer.value());
  }
  for (const auto p : second_peers) {
    EXPECT_FALSE(first_peers.count(p)) << "peer " << p << " reused";
  }
}

TEST(Allocation, AllocatorNameRoundTripsForEveryKind) {
  for (const AllocatorKind kind :
       {AllocatorKind::PaperBfs, AllocatorKind::Exhaustive,
        AllocatorKind::MinHop, AllocatorKind::Random, AllocatorKind::LeastLoaded,
        AllocatorKind::MaxUtil, AllocatorKind::DetStream}) {
    EXPECT_EQ(allocator_from_name(allocator_name(kind)), kind);
    const auto allocator = make_allocator(kind);
    ASSERT_NE(allocator, nullptr);
    EXPECT_EQ(allocator->kind(), kind);
  }
}

TEST(Allocation, UnknownAllocatorNameListsValidNames) {
  try {
    (void)allocator_from_name("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
    for (const char* name : {"paper-bfs", "exhaustive", "min-hop", "random",
                             "least-loaded", "max-util", "det-stream"}) {
      EXPECT_NE(msg.find(name), std::string::npos)
          << "error message does not list valid name " << name << ": " << msg;
    }
  }
}

TEST(Allocation, StreamingPoliciesFeasibleOnFigure1) {
  for (const AllocatorKind kind :
       {AllocatorKind::MaxUtil, AllocatorKind::DetStream}) {
    Fixture fx;
    const auto result = fx.run(kind);
    ASSERT_TRUE(result.found) << result.failure_reason;
    EXPECT_TRUE(result.sg.chain_consistent());
    EXPECT_EQ(result.sg.source_format(), fx.cat.v1);
    EXPECT_EQ(result.sg.target_format(), fx.cat.v3);
    EXPECT_GT(result.estimated_execution, 0);
  }
}

TEST(Allocation, MaxUtilConsolidatesOntoLoadedPeer) {
  // e2 (peer 2) and e3 (peer 3) are the same conversion; with peer 2 hot,
  // fairness avoids it but max-util deliberately packs onto it, keeping the
  // idle peers' capacity in one piece.
  Fixture fx;
  fx.set_load(2, 40e6);
  const auto result = fx.run(AllocatorKind::MaxUtil);
  ASSERT_TRUE(result.found);
  bool through_hot = false;
  for (const auto& hop : result.sg.hops()) {
    through_hot = through_hot || hop.peer == PeerId{2};
  }
  EXPECT_TRUE(through_hot);
}

TEST(Allocation, DetStreamMinimizesCompletionTime) {
  Fixture fx;
  const auto det = fx.run(AllocatorKind::DetStream);
  ASSERT_TRUE(det.found);
  for (const AllocatorKind other :
       {AllocatorKind::PaperBfs, AllocatorKind::MinHop,
        AllocatorKind::LeastLoaded}) {
    const auto result = fx.run(other);
    ASSERT_TRUE(result.found);
    EXPECT_LE(det.estimated_execution, result.estimated_execution)
        << allocator_name(other);
  }
  // Deterministic without consuming the rng: two fresh fixtures agree.
  Fixture fx2;
  const auto again = fx2.run(AllocatorKind::DetStream);
  ASSERT_TRUE(again.found);
  ASSERT_EQ(det.sg.hop_count(), again.sg.hop_count());
  for (std::size_t i = 0; i < det.sg.hop_count(); ++i) {
    EXPECT_EQ(det.sg.hops()[i].peer, again.sg.hops()[i].peer);
  }
}

TEST(Allocation, PicksLessLoadedReplicaOfSameObject) {
  Fixture fx;
  // Second replica of the object on peer 6, already in the target format.
  PeerAnnounce announce;
  announce.spec.id = PeerId{6};
  auto replica = fx.object;
  replica.format = fx.cat.v3;
  announce.objects = {replica};
  fx.info.add_inventory(announce);

  const auto result = fx.run(AllocatorKind::PaperBfs);
  ASSERT_TRUE(result.found);
  // Direct delivery from the v3 replica adds zero load: maximum fairness.
  EXPECT_EQ(result.sg.hop_count(), 0u);
  EXPECT_EQ(result.sg.source_peer(), PeerId{6});
}

// ---- scoring pass vs. materialize-every-candidate reference -------------------

// The allocators' pick rules as they stood when every candidate was a
// materialized PathEvaluation, kept verbatim: the reference the one-pass
// scoring kernel must reproduce bit for bit.
bool reference_hops_lex_less(const PathEvaluation& a, const PathEvaluation& b) {
  const std::size_t n = std::min(a.hops.size(), b.hops.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a.hops[i].peer != b.hops[i].peer) return a.hops[i].peer < b.hops[i].peer;
  }
  return a.hops.size() < b.hops.size();
}

const PathEvaluation* reference_pick(
    AllocatorKind kind, const InfoBase& info,
    const std::vector<const PathEvaluation*>& feasible, util::Rng& rng) {
  const PathEvaluation* best = feasible.front();
  switch (kind) {
    case AllocatorKind::PaperBfs:
    case AllocatorKind::Exhaustive:
      for (const auto* c : feasible) {
        if (c->fairness_after > best->fairness_after) best = c;
      }
      return best;
    case AllocatorKind::MinHop:
      for (const auto* c : feasible) {
        if (c->hops.size() < best->hops.size()) best = c;
      }
      return best;
    case AllocatorKind::Random:
      return feasible[rng.below(feasible.size())];
    case AllocatorKind::LeastLoaded:
      for (const auto* c : feasible) {
        if (c->max_utilization_after < best->max_utilization_after) {
          best = c;
        }
      }
      return best;
    case AllocatorKind::MaxUtil: {
      const auto mean_util = [&info](const PathEvaluation& ev) {
        if (ev.load_deltas.empty()) {
          return std::numeric_limits<double>::infinity();
        }
        double sum = 0.0;
        for (const auto& [peer, delta] : ev.load_deltas) {
          const auto* rec = info.domain().member(peer);
          if (rec == nullptr) continue;
          sum += (info.effective_load(peer) + delta) /
                 rec->spec.capacity_ops_per_s;
        }
        return sum / static_cast<double>(ev.load_deltas.size());
      };
      double best_score = mean_util(*best);
      for (const auto* c : feasible) {
        const double score = mean_util(*c);
        if (score > best_score ||
            (score == best_score &&
             (c->hops.size() < best->hops.size() ||
              (c->hops.size() == best->hops.size() &&
               reference_hops_lex_less(*c, *best))))) {
          best = c;
          best_score = score;
        }
      }
      return best;
    }
    case AllocatorKind::DetStream:
      for (const auto* c : feasible) {
        if (c->exec_time < best->exec_time ||
            (c->exec_time == best->exec_time &&
             (c->hops.size() < best->hops.size() ||
              (c->hops.size() == best->hops.size() &&
               reference_hops_lex_less(*c, *best))))) {
          best = c;
        }
      }
      return best;
  }
  return best;
}

AllocationResult reference_allocate(AllocatorKind kind, const InfoBase& info,
                                    const net::Transport& network,
                                    const SystemConfig& config,
                                    const AllocationRequest& request,
                                    util::Rng& rng) {
  AllocationResult result;
  const auto candidates =
      enumerate_candidates(info, network, config, request,
                           kind == AllocatorKind::Exhaustive, &result.search);
  result.candidates_considered = candidates.size();
  std::vector<const PathEvaluation*> feasible;
  for (const auto& c : candidates) {
    if (c.feasible) feasible.push_back(&c);
  }
  result.candidates_feasible = feasible.size();
  if (feasible.empty()) {
    if (info.locations(request.q.object) == nullptr) {
      result.failure_reason = "no-object";
    } else if (candidates.empty() && result.search.pruned == 0) {
      result.failure_reason = "no-path";
    } else {
      result.failure_reason = "deadline";
    }
    return result;
  }
  auto finalized =
      finalize(request, *reference_pick(kind, info, feasible, rng));
  finalized.search = result.search;
  finalized.candidates_considered = result.candidates_considered;
  finalized.candidates_feasible = result.candidates_feasible;
  return finalized;
}

// A random domain built for exact ties: capacities, loads and positions
// come from small discrete sets, some peers host one conversion twice, and
// the object has replicas in several formats. Every config switch the
// kernel reads (path cache, measured times, hop bound, cost model) varies.
struct RandomDomain {
  sim::Simulator sim{1};
  net::Topology topo{};
  net::Network net{sim, topo};
  SystemConfig config{};
  // Two rungs of resolution: every format is a few conversions apart.
  const media::Catalog catalog = media::ladder_catalog(
      {.resolutions = {media::kRes800x600, media::kRes640x480},
       .bitrates_kbps = {512, 256, 128}});
  InfoBase info{util::DomainId{0}, PeerId{0}};
  std::size_t peers = 0;

  explicit RandomDomain(std::uint64_t seed) {
    util::Rng rng(seed);
    const auto& conversions = catalog.conversions();
    const auto& formats = catalog.formats();
    config.enable_path_cache = rng.bernoulli(0.7);
    config.use_measured_execution_times = rng.bernoulli(0.7);
    config.exhaustive_max_hops = 2 + rng.below(3);
    // A flat cost model (every conversion costs the per-stream base) makes
    // chains of different lengths tie on mean utilization.
    if (rng.bernoulli(0.3)) config.cost_model.ops_per_pixel_per_s = 0.0;
    peers = 3 + rng.below(10);
    // Peers announce in shuffled id order, so enumeration order and the
    // streaming policies' peer-id tie-break disagree.
    std::vector<std::uint64_t> ids(peers);
    for (std::uint64_t p = 0; p < peers; ++p) ids[p] = p;
    rng.shuffle(ids.begin(), ids.end());
    // Co-located peers see equal latencies, so chains through peers of
    // one capacity/load class tie on estimated execution time.
    const double spread = rng.bernoulli(0.3) ? 0.0 : 100.0;
    std::uint64_t next_service = 1;
    for (const std::uint64_t id : ids) {
      overlay::PeerSpec spec;
      spec.id = PeerId{id};
      spec.capacity_ops_per_s = rng.bernoulli(0.5) ? 40e6 : 80e6;
      topo.place_at(spec.id, {spread * static_cast<double>(rng.below(2)),
                              spread * static_cast<double>(rng.below(2))});
      info.add_member(spec, 0);
      PeerAnnounce announce;
      announce.spec = spec;
      const std::size_t services = 1 + rng.below(5);
      for (std::size_t s = 0; s < services; ++s) {
        const auto& type = conversions[rng.below(conversions.size())];
        announce.services.push_back(
            ServiceOffering{ServiceId{next_service++}, type});
        if (rng.bernoulli(0.2)) {  // parallel edge on the same peer
          announce.services.push_back(
              ServiceOffering{ServiceId{next_service++}, type});
        }
      }
      info.add_inventory(announce);
      ProfilerReport report;
      report.sample.smoothed_load_ops =
          0.25 * static_cast<double>(rng.below(3)) * spec.capacity_ops_per_s;
      report.sample.backlog_seconds = rng.bernoulli(0.2) ? 0.5 : 0.0;
      for (const ServiceOffering& offering : announce.services) {
        if (rng.bernoulli(0.3)) {
          report.measured_exec_s.emplace_back(
              offering.type.type_key(),
              rng.bernoulli(0.5) ? 0.25 : 30.0);
        }
      }
      info.record_report(spec.id, report, 0);
      if (rng.bernoulli(0.3)) {
        info.commit_load(spec.id, 5e6 * static_cast<double>(1 + rng.below(2)),
                         0, util::seconds(60));
      }
    }
    // Replicas of object 1, each in a random catalog format.
    const std::size_t replicas = 1 + rng.below(3);
    for (std::size_t r = 0; r < replicas; ++r) {
      PeerAnnounce announce;
      announce.spec.id = PeerId{rng.below(peers)};
      const media::MediaFormat& format = formats[rng.below(formats.size())];
      const double duration_s = rng.bernoulli(0.5) ? 2.0 : 8.0;
      announce.objects = {
          media::make_object(util::ObjectId{1}, format, duration_s, rng)};
      info.add_inventory(announce);
    }
  }

  AllocationRequest request(util::Rng& rng) const {
    const auto& formats = catalog.formats();
    AllocationRequest r;
    r.task = util::TaskId{1 + rng.below(1000)};
    r.q.object = util::ObjectId{rng.bernoulli(0.1) ? 2u : 1u};
    const std::size_t acceptable = 1 + rng.below(3);
    for (std::size_t i = 0; i < acceptable; ++i) {
      r.q.acceptable_formats.push_back(formats[rng.below(formats.size())]);
    }
    // Infeasible, tight and generous deadlines.
    const util::SimDuration deadlines[] = {util::milliseconds(1),
                                           util::seconds(2), util::seconds(20),
                                           util::seconds(600)};
    r.q.deadline = deadlines[rng.below(4)];
    // The sink is usually a member, sometimes an outside consumer.
    r.sink = PeerId{rng.bernoulli(0.8) ? rng.below(peers) : 999u};
    r.submitted_at = util::seconds(static_cast<std::int64_t>(rng.below(3)));
    r.now = r.submitted_at + util::milliseconds(
                                 static_cast<std::int64_t>(rng.below(2) * 500));
    return r;
  }
};

void expect_same_result(const AllocationResult& a, const AllocationResult& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.failure_reason, b.failure_reason);
  EXPECT_EQ(a.fairness_after, b.fairness_after);
  EXPECT_EQ(a.estimated_execution, b.estimated_execution);
  EXPECT_EQ(a.candidates_considered, b.candidates_considered);
  EXPECT_EQ(a.candidates_feasible, b.candidates_feasible);
  EXPECT_EQ(a.search.vertices_popped, b.search.vertices_popped);
  EXPECT_EQ(a.search.sequences_enqueued, b.search.sequences_enqueued);
  EXPECT_EQ(a.search.candidates_found, b.search.candidates_found);
  EXPECT_EQ(a.search.pruned, b.search.pruned);
  EXPECT_EQ(a.search.cache_hits, b.search.cache_hits);
  EXPECT_EQ(a.search.cache_misses, b.search.cache_misses);
  EXPECT_EQ(a.load_deltas, b.load_deltas);
  EXPECT_EQ(a.sg.task(), b.sg.task());
  EXPECT_EQ(a.sg.source_peer(), b.sg.source_peer());
  EXPECT_EQ(a.sg.object(), b.sg.object());
  EXPECT_EQ(a.sg.sink_peer(), b.sg.sink_peer());
  EXPECT_EQ(a.sg.source_format(), b.sg.source_format());
  EXPECT_EQ(a.sg.target_format(), b.sg.target_format());
  EXPECT_EQ(a.sg.state, b.sg.state);
  ASSERT_EQ(a.sg.hop_count(), b.sg.hop_count());
  for (std::size_t i = 0; i < a.sg.hop_count(); ++i) {
    const graph::ServiceHop& x = a.sg.hops()[i];
    const graph::ServiceHop& y = b.sg.hops()[i];
    EXPECT_EQ(x.service, y.service) << "hop " << i;
    EXPECT_EQ(x.peer, y.peer) << "hop " << i;
    EXPECT_EQ(x.type, y.type) << "hop " << i;
    EXPECT_EQ(x.estimated_ops, y.estimated_ops) << "hop " << i;
    EXPECT_EQ(x.estimated_compute_time, y.estimated_compute_time) << "hop " << i;
    EXPECT_EQ(x.estimated_transfer_time, y.estimated_transfer_time)
        << "hop " << i;
  }
}

TEST(Allocation, ScoringMatchesMaterializedReferenceForEveryKind) {
  const AllocatorKind kinds[] = {
      AllocatorKind::PaperBfs,    AllocatorKind::Exhaustive,
      AllocatorKind::MinHop,      AllocatorKind::Random,
      AllocatorKind::LeastLoaded, AllocatorKind::MaxUtil,
      AllocatorKind::DetStream};
  std::size_t found = 0, failed = 0, choices = 0;
  std::set<std::string> reasons;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Two identical domains, so each side sees its own path cache warm up
    // in the same order.
    RandomDomain mine(seed);
    RandomDomain ref(seed);
    util::Rng draw(seed * 0x9e3779b97f4a7c15ULL);
    for (int q = 0; q < 6; ++q) {
      const AllocationRequest request = mine.request(draw);
      for (const AllocatorKind kind : kinds) {
        SCOPED_TRACE(std::string(allocator_name(kind)) + " query " +
                     std::to_string(q));
        util::Rng rng_mine(seed + 17 * static_cast<std::uint64_t>(q));
        util::Rng rng_ref = rng_mine;
        const AllocationResult a = make_allocator(kind)->allocate(
            mine.info, mine.net, mine.config, request, rng_mine);
        const AllocationResult b = reference_allocate(
            kind, ref.info, ref.net, ref.config, request, rng_ref);
        expect_same_result(a, b);
        EXPECT_EQ(rng_mine.next(), rng_ref.next());
        (a.found ? found : failed) += 1;
        if (a.candidates_feasible > 1) ++choices;
        reasons.insert(a.failure_reason);
      }
    }
  }
  // The sweep must exercise both outcomes and real choices.
  EXPECT_GT(found, 2000u);
  EXPECT_GT(failed, 2000u);
  EXPECT_GT(choices, 1200u);
  EXPECT_EQ(reasons, (std::set<std::string>{"", "deadline", "no-object",
                                            "no-path"}));
}

}  // namespace
}  // namespace p2prm::core
