// Streaming battery: deadline/continuity semantics of stream::StreamEngine
// under the competing placement policies (docs/STREAMING.md).
//
//   - accounting identity: delivered + late + dropped (+ in flight) always
//     equals generated, globally and per viewer, at every boundary
//   - upload-bandwidth cap: a peer's uplink serializes transmissions, so
//     bytes_sent == capacity * busy_time and saturation never exceeds 1
//   - chain rebuild: killing every transcode host mid-stream releases the
//     chain, fails placements during the blackout, and re-places on revival
//   - allocator differential: paper-bfs, max-util and det-stream all place
//     feasible chains on the same plan and see the same generated count
//   - byte determinism: identical (plan, pool) runs produce identical
//     digests and stats; a different plan seed produces a different digest
//   - probe-free runs: with no alive probe the liveness sweep is skipped,
//     and the run matches one under an always-true probe exactly
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <tuple>

#include "media/catalog.hpp"
#include "net/network.hpp"
#include "stream/engine.hpp"
#include "workload/streaming.hpp"

namespace p2prm::stream {
namespace {

using util::PeerId;

struct World {
  sim::Simulator sim{1};
  net::Topology topo{};
  net::Network net{sim, topo};
  core::SystemConfig config{};
  media::Catalog catalog = media::ladder_catalog();
};

// Pool mirroring the E10 bench: heterogeneous capacities, a fixed uplink,
// every catalog conversion hosted by several peers (round-robin), so chain
// feasibility is a policy question, not a lottery.
void build_pool(World& w, StreamEngine& engine, std::size_t peers,
                double uplink_bytes_per_s, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto& conversions = w.catalog.conversions();
  std::uint64_t service_id = 1;
  for (std::size_t p = 0; p < peers; ++p) {
    overlay::PeerSpec spec;
    spec.id = PeerId{p};
    spec.capacity_ops_per_s = rng.uniform(30e6, 90e6);
    spec.link.uplink_bytes_per_s = uplink_bytes_per_s;
    spec.link.downlink_bytes_per_s = uplink_bytes_per_s;
    w.topo.place_at(spec.id, {rng.uniform(0, 1000), rng.uniform(0, 1000)});
    std::vector<core::ServiceOffering> services;
    for (std::size_t s = 0; s < 6; ++s) {
      services.push_back(core::ServiceOffering{
          util::ServiceId{service_id++},
          conversions[(p * 6 + s) % conversions.size()]});
    }
    engine.add_peer(spec, services);
  }
}

workload::StreamPlan make_plan(const World& w, std::uint64_t seed,
                               std::uint32_t viewers, std::uint32_t flash) {
  workload::StreamingConfig scfg;
  scfg.seed = seed;
  scfg.channels = 3;
  scfg.viewers = viewers;
  scfg.flash_crowd = flash;
  std::vector<PeerId> sources{PeerId{0}, PeerId{1}, PeerId{2}};
  std::vector<PeerId> sinks;
  for (std::uint32_t v = 0; v < viewers + flash; ++v) {
    sinks.push_back(PeerId{1000 + v});
  }
  return workload::StreamingScenario(w.catalog, scfg).build(sources, sinks);
}

void place_sinks(World& w, const workload::StreamPlan& plan) {
  util::Rng rng(4242);
  for (const workload::ViewerPlan& v : plan.viewers) {
    w.topo.place_at(v.sink, {rng.uniform(0, 1000), rng.uniform(0, 1000)});
  }
}

// Runs until at least `at_least`, then keeps going until every in-flight
// outcome has committed (horizon() can grow while draining).
void drain(World& w, StreamEngine& engine, util::SimTime at_least) {
  w.sim.run_until(at_least);
  while (w.sim.now() <= engine.horizon()) {
    w.sim.run_until(engine.horizon() + 1);
  }
}

TEST(Streaming, AccountingIdentityHoldsAtEveryBoundary) {
  World w;
  w.config.allocator = core::AllocatorKind::PaperBfs;
  const workload::StreamPlan plan = make_plan(w, 11, 14, 10);
  StreamEngine engine(w.sim, w.net, w.config, plan);
  build_pool(w, engine, 20, 4e6, 11);
  place_sinks(w, plan);
  engine.start();

  const util::SimTime end = plan.config.live_window +
                            plan.config.chunk_deadline +
                            plan.config.late_grace + util::seconds(10);
  for (util::SimTime t = 0; t < end; t += util::milliseconds(500)) {
    w.sim.run_until(t);
    ASSERT_EQ(engine.accounting_error(), std::nullopt) << "at t=" << t;
  }
  drain(w, engine, end);

  const StreamStats& s = engine.stats();
  EXPECT_GT(s.chunks_generated, 0u);
  EXPECT_EQ(s.chunks_in_flight, 0u);
  EXPECT_EQ(s.chunks_delivered + s.chunks_late + s.chunks_dropped,
            s.chunks_generated);
  EXPECT_EQ(engine.accounting_error(), std::nullopt);
  EXPECT_GE(engine.continuity_index(), 0.0);
  EXPECT_LE(engine.continuity_index(), 1.0);
  EXPECT_GE(engine.deadline_miss_rate(), 0.0);
  EXPECT_LE(engine.deadline_miss_rate(), 1.0);
}

TEST(Streaming, UploadCapHoldsUnderFlashCrowd) {
  World w;
  w.config.allocator = core::AllocatorKind::PaperBfs;
  // Deliberately starved uplinks, and a hand-built plan in which the whole
  // flash crowd wants the same (channel, format): one chain, one last-hop
  // uplink fanning out 30+ copies per chunk — that link must saturate, and
  // the cap must still hold.
  constexpr double kUplink = 250e3;
  const media::TranscoderType conv = w.catalog.conversions().front();
  workload::StreamPlan plan;
  plan.config.seed = 5;
  plan.config.live_window = util::seconds(20);
  workload::ChannelPlan ch;
  ch.id = 0;
  ch.source = PeerId{0};
  ch.object = util::ObjectId{1};
  ch.source_format = conv.input;
  ch.start = 0;
  ch.chunk_count = 40;
  plan.channels.push_back(ch);
  std::uint32_t viewer_id = 0;
  const auto add_viewer = [&](util::SimTime join, bool flash) {
    workload::ViewerPlan vp;
    vp.id = viewer_id;
    vp.channel = 0;
    vp.sink = PeerId{1000 + viewer_id};
    vp.target = conv.output;
    vp.join = join;
    vp.leave = util::seconds(20);
    vp.flash = flash;
    plan.viewers.push_back(vp);
    ++viewer_id;
  };
  for (int v = 0; v < 4; ++v) add_viewer(util::milliseconds(100), false);
  for (int v = 0; v < 30; ++v) {
    add_viewer(util::seconds(8) + util::milliseconds(10 * v), true);
  }
  ASSERT_NO_THROW(workload::StreamingScenario::validate(w.catalog, plan));

  StreamEngine engine(w.sim, w.net, w.config, plan);
  util::Rng rng(5);
  const auto add_peer = [&](std::uint64_t id,
                            std::vector<core::ServiceOffering> services) {
    overlay::PeerSpec spec;
    spec.id = PeerId{id};
    spec.capacity_ops_per_s = 80e6;
    spec.link.uplink_bytes_per_s = kUplink;
    spec.link.downlink_bytes_per_s = kUplink;
    w.topo.place_at(spec.id, {rng.uniform(0, 100), rng.uniform(0, 100)});
    engine.add_peer(spec, std::move(services));
  };
  add_peer(0, {});
  add_peer(1, {core::ServiceOffering{util::ServiceId{1}, conv}});
  add_peer(2, {core::ServiceOffering{util::ServiceId{2}, conv}});
  for (const workload::ViewerPlan& vp : plan.viewers) {
    w.topo.place_at(vp.sink, {rng.uniform(0, 100), rng.uniform(0, 100)});
  }
  engine.start();
  drain(w, engine, plan.config.live_window + plan.config.chunk_deadline +
                       plan.config.late_grace + util::seconds(10));

  ASSERT_EQ(engine.accounting_error(), std::nullopt);
  const double elapsed = util::to_seconds(w.sim.now());
  double hottest = 0.0;
  for (const auto& [id, acct] : engine.upload_accounts()) {
    EXPECT_DOUBLE_EQ(acct.capacity_bytes_per_s, kUplink);
    // The uplink serializes: every byte took its 1/capacity share of
    // busy_time (up to one ns of rounding per reservation).
    EXPECT_NEAR(acct.bytes_sent,
                acct.capacity_bytes_per_s * util::to_seconds(acct.busy_time),
                1.0 + 1e-6 * acct.bytes_sent)
        << "peer " << id.value();
    // A link cannot be busy for longer than the run it was busy in.
    EXPECT_LE(util::to_seconds(acct.busy_time), elapsed + 1e-9)
        << "peer " << id.value();
    hottest = std::max(hottest, util::to_seconds(acct.busy_time) / elapsed);
  }
  EXPECT_LE(engine.max_upload_saturation(), 1.0 + 1e-9);
  // The test must bite: the starved pool actually saturates and misses.
  EXPECT_GT(hottest, 0.5);
  EXPECT_GT(engine.stats().chunks_late + engine.stats().chunks_dropped, 0u);
}

TEST(Streaming, ChainRebuildsAfterHostCrashAndRecovers) {
  World w;
  w.config.allocator = core::AllocatorKind::PaperBfs;
  // Hand-built plan: one channel whose viewers all need one transcode, so
  // every chain crosses a host peer we can kill.
  const media::TranscoderType conv = w.catalog.conversions().front();
  workload::StreamPlan plan;
  plan.config.seed = 7;
  plan.config.live_window = util::seconds(20);
  workload::ChannelPlan ch;
  ch.id = 0;
  ch.source = PeerId{0};
  ch.object = util::ObjectId{1};
  ch.source_format = conv.input;
  ch.start = 0;
  ch.chunk_count = 40;
  plan.channels.push_back(ch);
  for (std::uint32_t v = 0; v < 4; ++v) {
    workload::ViewerPlan vp;
    vp.id = v;
    vp.channel = 0;
    vp.sink = PeerId{100 + v};
    vp.target = conv.output;
    vp.join = util::milliseconds(100);
    vp.leave = util::seconds(20);
    plan.viewers.push_back(vp);
  }
  ASSERT_NO_THROW(workload::StreamingScenario::validate(w.catalog, plan));

  StreamEngine engine(w.sim, w.net, w.config, plan);
  util::Rng rng(7);
  const auto add = [&](std::uint64_t id,
                       std::vector<core::ServiceOffering> services) {
    overlay::PeerSpec spec;
    spec.id = PeerId{id};
    spec.capacity_ops_per_s = 60e6;
    spec.link.uplink_bytes_per_s = 10e6;
    spec.link.downlink_bytes_per_s = 10e6;
    w.topo.place_at(spec.id, {rng.uniform(0, 100), rng.uniform(0, 100)});
    engine.add_peer(spec, std::move(services));
  };
  add(0, {});  // source hosts nothing: the transcode hop is never peer 0
  for (std::uint64_t h = 1; h <= 3; ++h) {
    add(h, {core::ServiceOffering{util::ServiceId{h}, conv}});
  }
  for (const workload::ViewerPlan& vp : plan.viewers) {
    w.topo.place_at(vp.sink, {rng.uniform(0, 100), rng.uniform(0, 100)});
  }

  std::set<std::uint64_t> dead;
  engine.set_alive_probe(
      [&dead](PeerId p) { return dead.count(p.value()) == 0; });
  engine.start();

  std::uint64_t delivered_before_revival = 0;
  w.sim.schedule_at(util::seconds(8), [&] { dead = {1, 2, 3}; });
  w.sim.schedule_at(util::seconds(12), [&] {
    delivered_before_revival = engine.stats().chunks_delivered;
    dead.clear();
  });
  drain(w, engine, util::seconds(30));

  const StreamStats& s = engine.stats();
  ASSERT_EQ(engine.accounting_error(), std::nullopt);
  EXPECT_GE(s.chain_rebuilds, 1u);          // the placed chain lost its host
  EXPECT_GT(s.placement_failures, 0u);      // blackout: nothing to place on
  EXPECT_GT(s.chunks_dropped, 0u);          // blackout chunks were lost
  EXPECT_GT(delivered_before_revival, 0u);  // streamed fine before the crash
  // After the hosts revive, the chain is re-placed and delivery resumes.
  EXPECT_GT(s.chunks_delivered, delivered_before_revival);
}

TEST(Streaming, AllAllocatorsFeasibleOnSamePlan) {
  const core::AllocatorKind kinds[] = {core::AllocatorKind::PaperBfs,
                                       core::AllocatorKind::MaxUtil,
                                       core::AllocatorKind::DetStream};
  std::uint64_t generated[3] = {};
  for (std::size_t k = 0; k < 3; ++k) {
    World w;
    w.config.allocator = kinds[k];
    const workload::StreamPlan plan = make_plan(w, 42, 12, 8);
    StreamEngine engine(w.sim, w.net, w.config, plan);
    build_pool(w, engine, 24, 5e6, 42);
    place_sinks(w, plan);
    engine.start();
    drain(w, engine, plan.config.live_window + plan.config.chunk_deadline +
                         plan.config.late_grace + util::seconds(10));

    const StreamStats& s = engine.stats();
    ASSERT_EQ(engine.accounting_error(), std::nullopt)
        << core::allocator_name(kinds[k]);
    EXPECT_GT(s.chains_built, 0u) << core::allocator_name(kinds[k]);
    EXPECT_GT(s.chunks_delivered, 0u) << core::allocator_name(kinds[k]);
    EXPECT_EQ(s.placement_failures, 0u) << core::allocator_name(kinds[k]);
    generated[k] = s.chunks_generated;
  }
  // Generation is plan-driven (subscriber counts at each tick), so every
  // policy owes exactly the same chunk copies.
  EXPECT_EQ(generated[0], generated[1]);
  EXPECT_EQ(generated[1], generated[2]);
}

TEST(Streaming, ByteDeterministicPerSeed) {
  const auto run = [](std::uint64_t plan_seed) {
    World w;
    w.config.allocator = core::AllocatorKind::DetStream;
    const workload::StreamPlan plan = make_plan(w, plan_seed, 10, 12);
    StreamEngine engine(w.sim, w.net, w.config, plan);
    build_pool(w, engine, 16, 3e6, 99);
    place_sinks(w, plan);
    engine.start();
    drain(w, engine, plan.config.live_window + plan.config.chunk_deadline +
                         plan.config.late_grace + util::seconds(10));
    return std::pair<std::uint64_t, StreamStats>(engine.digest(),
                                                 engine.stats());
  };

  const auto [d1, s1] = run(123);
  const auto [d2, s2] = run(123);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(s1.chunks_generated, s2.chunks_generated);
  EXPECT_EQ(s1.chunks_delivered, s2.chunks_delivered);
  EXPECT_EQ(s1.chunks_late, s2.chunks_late);
  EXPECT_EQ(s1.chunks_dropped, s2.chunks_dropped);
  EXPECT_EQ(s1.chains_built, s2.chains_built);
  EXPECT_EQ(s1.chain_rebuilds, s2.chain_rebuilds);
  EXPECT_EQ(s1.placement_failures, s2.placement_failures);

  const auto [d3, s3] = run(124);
  EXPECT_NE(d1, d3);  // a different plan seed is a different stream
}

TEST(Streaming, NoProbeRunMatchesAlwaysAliveProbe) {
  // Without a probe the engine skips its liveness sweep outright; with an
  // always-true probe it sweeps every tick and placement. Both must be the
  // same run, so skipping the sweep can never have changed anything.
  const auto run = [](bool install_probe) {
    World w;
    w.config.allocator = core::AllocatorKind::PaperBfs;
    const workload::StreamPlan plan = make_plan(w, 77, 16, 12);
    StreamEngine engine(w.sim, w.net, w.config, plan);
    build_pool(w, engine, 18, 2e6, 77);
    place_sinks(w, plan);
    if (install_probe) engine.set_alive_probe([](PeerId) { return true; });
    engine.start();
    EXPECT_THROW(engine.set_alive_probe({}), std::logic_error);
    drain(w, engine, plan.config.live_window + plan.config.chunk_deadline +
                         plan.config.late_grace + util::seconds(10));
    EXPECT_EQ(engine.accounting_error(), std::nullopt);
    return std::tuple(engine.digest(), engine.stats(),
                      engine.upload_accounts());
  };

  const auto [d_none, s_none, up_none] = run(false);
  const auto [d_probe, s_probe, up_probe] = run(true);
  EXPECT_EQ(d_none, d_probe);
  EXPECT_GT(s_none.chunks_delivered, 0u);
  EXPECT_EQ(s_none.chunks_generated, s_probe.chunks_generated);
  EXPECT_EQ(s_none.chunks_delivered, s_probe.chunks_delivered);
  EXPECT_EQ(s_none.chunks_late, s_probe.chunks_late);
  EXPECT_EQ(s_none.chunks_dropped, s_probe.chunks_dropped);
  EXPECT_EQ(s_none.chunks_in_flight, s_probe.chunks_in_flight);
  EXPECT_EQ(s_none.chains_built, s_probe.chains_built);
  EXPECT_EQ(s_none.chain_rebuilds, s_probe.chain_rebuilds);
  EXPECT_EQ(s_none.placement_failures, s_probe.placement_failures);
  EXPECT_EQ(s_none.viewers_joined, s_probe.viewers_joined);
  EXPECT_EQ(s_none.viewers_left, s_probe.viewers_left);
  ASSERT_EQ(up_none.size(), up_probe.size());
  for (std::size_t i = 0; i < up_none.size(); ++i) {
    EXPECT_EQ(up_none[i].first, up_probe[i].first);
    EXPECT_EQ(up_none[i].second.capacity_bytes_per_s,
              up_probe[i].second.capacity_bytes_per_s);
    EXPECT_EQ(up_none[i].second.bytes_sent, up_probe[i].second.bytes_sent);
    EXPECT_EQ(up_none[i].second.busy_time, up_probe[i].second.busy_time);
  }
}

}  // namespace
}  // namespace p2prm::stream
