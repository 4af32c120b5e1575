#include "check/runner.hpp"

#include <memory>
#include <optional>
#include <sstream>

#include "core/system.hpp"
#include "core/trace.hpp"
#include "media/catalog.hpp"
#include "net/network.hpp"
#include "stream/engine.hpp"
#include "util/rng.hpp"
#include "workload/arrivals.hpp"
#include "workload/churn.hpp"
#include "workload/heterogeneity.hpp"
#include "workload/requests.hpp"

namespace p2prm::check {
namespace {

// FNV-1a, the digest primitive used across the repo's byte-stable artifacts.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix(std::uint64_t& h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
}

void fnv_mix_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

// Observable-behavior digest. Excludes HopStarted/HopCompleted (the only
// events enable_spans adds) and all transport counters, so the cache-off and
// spans-on replays of a scenario must reproduce it exactly.
std::uint64_t behavior_digest(core::System& system, const core::Tracer& tracer) {
  std::uint64_t h = kFnvOffset;

  const auto& ledger = system.ledger();
  for (std::uint64_t id = 0;; ++id) {
    const auto* r = ledger.record(util::TaskId{id});
    if (r == nullptr) break;
    fnv_mix_u64(h, id);
    fnv_mix(h, core::task_status_name(r->status));
    fnv_mix_u64(h, static_cast<std::uint64_t>(r->submitted));
    fnv_mix_u64(h, static_cast<std::uint64_t>(r->finished));
    fnv_mix_u64(h, r->missed_deadline ? 1 : 0);
    fnv_mix(h, r->reason);
  }

  for (const auto& e : tracer.events()) {
    if (e.kind == core::TraceKind::HopStarted ||
        e.kind == core::TraceKind::HopCompleted) {
      continue;
    }
    fnv_mix_u64(h, static_cast<std::uint64_t>(e.at));
    fnv_mix(h, core::trace_kind_name(e.kind));
    fnv_mix_u64(h, e.peer.valid() ? e.peer.value() : ~0ULL);
    fnv_mix_u64(h, e.task.valid() ? e.task.value() : ~0ULL);
    fnv_mix_u64(h, e.domain.valid() ? e.domain.value() : ~0ULL);
    fnv_mix(h, e.detail);
  }

  for (const auto& d : system.domains()) {
    fnv_mix_u64(h, d.domain.value());
    fnv_mix_u64(h, d.rm.value());
    fnv_mix_u64(h, d.members);
  }
  for (const auto peer : system.alive_peer_ids()) {
    fnv_mix_u64(h, peer.value());
  }
  return h;
}

}  // namespace

RunResult run_scenario(const ScenarioSpec& spec, InvariantChecker& checker,
                       util::SimDuration boundary_period,
                       const InspectFn& inspect,
                       const ConfigTweakFn& tweak) {
  core::SystemConfig sys;
  sys.seed = spec.seed;
  sys.max_domain_size = spec.max_domain_size;
  sys.enable_path_cache = spec.path_cache;
  sys.enable_spans = spec.spans;
  sys.enable_hierarchical_infobase = spec.hierarchical;
  sys.gossip_domain_aggregates = spec.hierarchical;
  // Tight enough that every admitted-but-doomed task is failed and its jobs
  // cancelled well inside the drain window.
  sys.task_gc_grace = util::seconds(15);
  if (tweak) tweak(sys);

  core::System system(sys);
  // Large capacity: a ring-buffer eviction would make the spans-on replay
  // (which records strictly more events) drop *different* non-hop events
  // and break the digest equivalence.
  core::Tracer tracer(std::size_t{1} << 20);
  system.set_tracer(&tracer);

  const media::Catalog catalog = media::ladder_catalog();
  util::Rng rng(spec.seed * 7919 + 17);

  workload::HeterogeneityConfig het;
  het.distribution =
      static_cast<workload::CapacityDistribution>(spec.het & 3u);

  workload::PopulationConfig pop;
  pop.object_count = std::max<std::size_t>(10, std::size_t{spec.peers} * 2);
  // Short objects: deadlines stay well under the drain horizon.
  pop.min_duration_s = 2.0;
  pop.max_duration_s = 5.0;

  workload::ProvisionConfig prov;
  workload::RequestConfig req;
  req.min_deadline_tightness = 1.2;
  req.max_deadline_tightness = 2.5;

  workload::ObjectPopulation population(catalog, pop, system, rng);
  workload::PeerFactory factory = workload::make_peer_factory(
      catalog, population, het, prov, system, rng);

  const auto bootstrap_order = workload::bootstrap_network(
      system, factory, spec.peers, util::seconds(5));
  const util::SimTime t0 = system.simulator().now();

  // Lazy population: flat registry rows only, materialized in waves at the
  // workload boundaries below. Specs are drawn from a dedicated stream so
  // the live population above is untouched.
  std::vector<util::PeerId> lazy_ids;
  if (spec.lazy_peers > 0) {
    system.reserve_peers(std::size_t{spec.peers} + spec.lazy_peers);
    util::Rng lazy_rng(spec.seed * 6271 + 29);
    lazy_ids.reserve(spec.lazy_peers);
    for (std::uint32_t i = 0; i < spec.lazy_peers; ++i) {
      lazy_ids.push_back(system.add_lazy_peer(
          workload::draw_peer_spec(het, lazy_rng, t0), {}));
    }
  }

  if (!spec.link.trivial() || !spec.partitions.empty() ||
      !spec.crashes.empty()) {
    // Fault injection runs on either transport: the sim Network hooks its
    // delivery pipeline, the socket transport installs a frame-granularity
    // shim executing the same plan (docs/TRANSPORT.md).
    system.install_fault_plan(spec.fault_plan(t0, bootstrap_order));
  }

  // Streaming overlay: a StreamEngine on the same simulator, its pool the
  // bootstrap population, its liveness probe the System's peer state — so
  // the fault plan and churn schedule break chains mid-stream. shared_ptr:
  // the stream.accounting closure registered on `checker` (whose lifetime
  // the caller owns) must never dangle.
  std::shared_ptr<stream::StreamEngine> engine;
  if (spec.stream) {
    workload::StreamingConfig scfg;
    scfg.seed = spec.seed;
    scfg.channels = spec.stream_channels;
    scfg.viewers = spec.stream_viewers;
    scfg.flash_crowd = spec.stream_flash;
    scfg.chunk_period = util::milliseconds(spec.stream_chunk_ms);
    // The stream spans the workload window; every outcome commits within
    // deadline + grace of the last chunk, well inside the drain.
    scfg.live_window = spec.workload;
    scfg.flash_at = spec.workload / 3;

    core::SystemConfig stream_sys = sys;
    static constexpr core::AllocatorKind kStreamAllocs[] = {
        core::AllocatorKind::PaperBfs, core::AllocatorKind::MaxUtil,
        core::AllocatorKind::DetStream};
    stream_sys.allocator = kStreamAllocs[spec.stream_alloc % 3];

    const workload::StreamPlan plan =
        workload::StreamingScenario(catalog, scfg)
            .build(bootstrap_order, bootstrap_order);
    engine = std::make_shared<stream::StreamEngine>(
        system.simulator(), system.transport(), stream_sys, plan);
    const auto& conversions = catalog.conversions();
    std::uint64_t stream_service = 1'000'000;
    std::size_t conv_cursor = 0;
    for (const util::PeerId id : bootstrap_order) {
      const core::PeerNode* node = system.peer(id);
      if (node == nullptr) continue;
      // Every conversion lands on several peers (round-robin over the
      // catalog): chain feasibility stays a policy question, not a lottery.
      std::vector<core::ServiceOffering> services;
      for (std::size_t s = 0; s < 4; ++s) {
        services.push_back(core::ServiceOffering{
            util::ServiceId{stream_service++},
            conversions[conv_cursor++ % conversions.size()]});
      }
      engine->add_peer(node->spec(), services);
    }
    engine->set_alive_probe([&system](util::PeerId p) {
      const core::PeerNode* n = system.peer(p);
      return n != nullptr && n->alive();
    });
    engine->start();
    checker.add("stream.accounting", /*quiescent_only=*/false,
                [engine](core::System&, CheckPhase) {
                  return engine->accounting_error();
                });
  }

  workload::RequestSynthesizer synthesizer(catalog, population, req);
  workload::WorkloadDriver driver(
      system, std::make_unique<workload::PoissonArrivals>(spec.arrival_rate),
      synthesizer);
  driver.on_submit = [&](util::TaskId) {
    if (driver.submitted() >= spec.task_cap) driver.stop();
  };

  std::optional<workload::ChurnDriver> churn;
  if (spec.churn) {
    workload::ChurnConfig cc;
    cc.mean_session_s = spec.mean_session_s;
    cc.crash_fraction = spec.crash_fraction;
    cc.respawn = spec.respawn;
    cc.mean_offline_s = spec.mean_offline_s;
    churn.emplace(system, factory, cc);
    churn->track_all_alive();
  }

  const util::SimTime end_work = t0 + spec.workload;
  const util::SimTime end = end_work + spec.drain;
  driver.start(end_work);

  // Lazy wave: a round-robin slice of the lazy population joins, then
  // anything idle (lazy joiners and bored bootstrap peers alike) demotes
  // back to rows — the materialize/demote lifecycle under fire. The wave
  // is staggered across the boundary window: a same-instant flood into a
  // small live core converges pathologically slowly, because every join
  // contact is another not-yet-joined wave-mate (bootstrap staggers its
  // joins for the same reason).
  std::size_t lazy_cursor = 0;
  const auto run_wave = [&] {
    if (lazy_ids.empty() || spec.wave_peers == 0) return;
    for (std::uint32_t i = 0; i < spec.wave_peers; ++i) {
      const util::PeerId id = lazy_ids[lazy_cursor];
      lazy_cursor = (lazy_cursor + 1) % lazy_ids.size();
      const auto offset = boundary_period * static_cast<std::int64_t>(i) /
                          static_cast<std::int64_t>(spec.wave_peers);
      system.simulator().schedule_after(
          offset, [&system, id] { system.materialize_peer(id); });
    }
    system.demote_idle_peers(2 * boundary_period);
  };

  // Event-loop-boundary checks: run_until stops *between* events, so every
  // boundary invariant is evaluated on a consistent world state. Waves run
  // only during the workload window — the drain must be able to reach
  // quiescence with no peers mid-join.
  // System::run_until (not simulator().run_until) so a socket-transport run
  // pumps its sockets between event batches via the realtime driver.
  const auto run_checked = [&](util::SimTime until, bool waves) {
    util::SimTime next = system.simulator().now() + boundary_period;
    while (next < until) {
      system.run_until(next);
      checker.check(system, CheckPhase::Boundary);
      if (waves) run_wave();
      next += boundary_period;
    }
    system.run_until(until);
    checker.check(system, CheckPhase::Boundary);
  };

  run_checked(end_work, /*waves=*/true);
  driver.stop();
  if (churn) churn->stop();  // drain undisturbed: quiescence must be reachable
  run_checked(end, /*waves=*/false);

  system.drain_transport(/*wall_ms=*/200);  // no-op in sim mode
  system.ledger().orphan_pending(system.simulator().now());
  checker.check(system, CheckPhase::Quiescent);
  if (inspect) inspect(system);

  RunResult result;
  result.violations = checker.violations();
  result.digest = behavior_digest(system, tracer);
  if (engine) {
    // Fold every chunk outcome in: the determinism / cache / span oracles
    // now also prove the streaming overlay byte-stable.
    fnv_mix_u64(result.digest, engine->digest());
  }
  result.end_time = system.simulator().now();

  const auto& ledger = system.ledger();
  result.submitted = ledger.submitted();
  result.completed = ledger.completed();
  result.rejected = ledger.rejected();
  result.failed = ledger.failed();
  result.orphaned = ledger.orphaned();
  result.missed = ledger.missed();
  result.trace_events = tracer.total_recorded();
  result.net_sent = system.transport().stats().messages_sent;
  result.net_delivered = system.transport().stats().messages_delivered;
  result.domains = system.domains().size();
  result.alive = system.alive_count();
  return result;
}

RunResult run_scenario(const ScenarioSpec& spec) {
  auto checker = InvariantChecker::with_defaults();
  return run_scenario(spec, checker);
}

SeedOutcome run_spec(const ScenarioSpec& spec, bool oracles,
                     const ConfigTweakFn& tweak) {
  SeedOutcome outcome;
  outcome.spec = spec;
  {
    auto checker = InvariantChecker::with_defaults();
    outcome.result = run_scenario(spec, checker, util::seconds(2), {}, tweak);
  }
  if (!oracles || !outcome.result.ok()) return outcome;

  const auto oracle_violation = [&](std::string name, std::string message) {
    outcome.result.violations.push_back(Violation{
        std::move(name), outcome.result.end_time, std::move(message)});
  };

  // Determinism: the same spec must reproduce the same digest bit-for-bit.
  {
    const RunResult replay = run_scenario(spec);
    if (!replay.ok()) {
      oracle_violation("oracle.determinism",
                       "replay of a clean run produced violations: " +
                           replay.violations.front().invariant);
    } else if (replay.digest != outcome.result.digest) {
      std::ostringstream msg;
      msg << "digest " << std::hex << outcome.result.digest
          << " != replay digest " << replay.digest;
      oracle_violation("oracle.determinism", msg.str());
    }
  }

  // Path-cache ablation: caching is an optimization, never a decision change.
  {
    ScenarioSpec flipped = spec;
    flipped.path_cache = !flipped.path_cache;
    const RunResult replay = run_scenario(flipped);
    if (replay.digest != outcome.result.digest) {
      std::ostringstream msg;
      msg << "cache=" << spec.path_cache << " digest " << std::hex
          << outcome.result.digest << " != cache=" << flipped.path_cache
          << " digest " << replay.digest;
      oracle_violation("oracle.path_cache", msg.str());
    }
  }

  // Span ablation: enable_spans may only add Hop* events, which the digest
  // ignores; everything else must be untouched.
  if (!spec.spans) {
    ScenarioSpec flipped = spec;
    flipped.spans = true;
    const RunResult replay = run_scenario(flipped);
    if (replay.digest != outcome.result.digest) {
      std::ostringstream msg;
      msg << "spans-off digest " << std::hex << outcome.result.digest
          << " != spans-on digest " << replay.digest;
      oracle_violation("oracle.spans", msg.str());
    }
  }

  return outcome;
}

SeedOutcome fuzz_seed(std::uint64_t seed, bool oracles) {
  return run_spec(ScenarioSpec::generate(seed), oracles);
}

}  // namespace p2prm::check
