#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/system.hpp"
#include "media/catalog.hpp"
#include "metrics/publish.hpp"
#include "net/network.hpp"
#include "obs/metrics_registry.hpp"
#include "probes.hpp"
#include "stream/engine.hpp"
#include "workload/arrivals.hpp"
#include "workload/churn.hpp"
#include "workload/deployment.hpp"
#include "workload/heterogeneity.hpp"
#include "workload/requests.hpp"
#include "workload/streaming.hpp"

namespace p2prm::bench_e2e {

namespace {

using util::SimDuration;
using util::SimTime;

// Every workload runs on one fixed deployment (peer capacities, inventories,
// placement, channel lineup) built from this seed; --seed draws the traffic
// offered to it (arrival times, requests, origins, churn, viewer sessions).
// Deployments drawn per seed differ so much (stream CPU varied 4x across
// seeds 1..10) that run-to-run spread would hide any change worth gating.
constexpr std::uint64_t kDeploymentSeed = 42;

[[nodiscard]] std::uint64_t traffic_seed(const RunOptions& o) {
  return o.seed * 0x9e3779b97f4a7c15ULL + 0x7a11ULL;
}

// Run lengths are given for --seconds=10 and scale linearly with it.
// --smoke shrinks populations about 20-fold but keeps at least 1000 tasks
// in the measured phase, so every check (p99 sample counts included) runs.
SimDuration run_length(const RunOptions& o, double sim_s_at_10) {
  return util::from_seconds(std::round(sim_s_at_10 * o.seconds / 10.0));
}
template <typename T>
T sized(const RunOptions& o, T full, T smoke) {
  return o.smoke ? smoke : full;
}

// ---- slicing -------------------------------------------------------------------

// Drives a run in fixed sim-time slices. Between slices the tracer is
// drained, socket generator lag is sampled, and milestone callbacks (the
// traced run's allocation snapshots) fire.
struct Slicer {
  const char* span = "sim.slice";  // measured-phase slices only
  SimDuration slice = util::seconds(1);
  double wall_per_sim = 1.0;
  bool paced = false;  // socket: slice k is due at wall_epoch + k*slice*scale
  double wall_epoch = 0.0;
  SimTime sim_epoch = 0;
  util::Samples lag_ms;
  std::vector<SimTime> milestones;  // ascending
  std::function<void()> on_milestone;
};

template <typename RunUntil>
void advance(RunUntil&& run_until, SimTime now, SimTime until,
             TaskWatch* watch, Spans& spans, Slicer& s) {
  while (now < until) {
    const SimTime next = std::min(until, now + s.slice);
    {
      Spans::Scope slice(spans, s.span);
      run_until(next);
    }
    if (s.paced) {
      const double due = s.wall_epoch + util::to_seconds(next - s.sim_epoch) *
                                            s.wall_per_sim;
      s.lag_ms.add((wall_s() - due) * 1e3);
    }
    if (watch != nullptr) {
      Spans::Scope drain(spans, "watch.drain");
      watch->drain();
    }
    now = next;
    while (!s.milestones.empty() && now >= s.milestones.front()) {
      s.milestones.erase(s.milestones.begin());
      if (s.on_milestone) s.on_milestone();
    }
  }
}

void advance(core::System& system, TaskWatch& watch, SimTime until,
             Spans& spans, Slicer& s) {
  advance([&](SimTime t) { system.run_until(t); }, system.simulator().now(),
          until, &watch, spans, s);
}

// ---- measured phase bookkeeping ------------------------------------------------------

struct Phase {
  double wall0 = 0.0, cpu0 = 0.0;
  SimTime sim0 = 0;
  std::uint64_t events0 = 0, scheduled0 = 0;

  void start(const sim::Simulator& sim) {
    sim0 = sim.now();
    events0 = sim.events_executed();
    scheduled0 = sim.events_scheduled();
    cpu0 = cpu_s();
    wall0 = wall_s();
  }
  // End-to-end cost metrics of the phase; returns its wall seconds.
  double finish(const sim::Simulator& sim, Report& r) const {
    const double wall = wall_s() - wall0;
    r.set("sim_speed", util::to_seconds(sim.now() - sim0) / wall, "sim-s/s");
    r.set("cpu_s", cpu_s() - cpu0, "s");
    r.set("sim.events",
          static_cast<double>(sim.events_executed() - events0), "count");
    r.set("sim.scheduled",
          static_cast<double>(sim.events_scheduled() - scheduled0), "count");
    return wall;
  }
};

// Builds the world under the "setup" span and reports its wall time as
// setup_s.
template <typename Build>
auto timed_setup(Spans& spans, Report& r, Build&& build) {
  Spans::Scope setup(spans, "setup");
  const double t0 = wall_s();
  auto world = build();
  r.set("setup_s", wall_s() - t0, "s");
  return world;
}

// Span-derived per-layer timings shared by every workload.
void set_span_timings(const Spans& spans, Report& r) {
  const Report::Metric* events = r.find("sim.events");
  const double n = events != nullptr ? events->value : 0.0;
  r.set("sim.ns_per_event", n > 0 ? spans.self("sim.slice") * 1e9 / n : 0.0,
        "ns");
  const util::Samples slice_s = spans.durations("sim.slice");
  util::Samples slice_ms;
  for (const double d : slice_s.values()) slice_ms.add(d * 1e3);
  r.percentiles("sim.slice_ms_p50", "sim.slice_ms_p99", "ms", slice_ms);
  r.set("setup.build_s", spans.total("workload.build"), "s");
  r.set("setup.start_s",
        spans.total("core.bootstrap") + spans.total("core.register") +
            spans.total("stream.start") + spans.total("deploy.schedule"),
        "s");
  r.set("setup.warmup_s", spans.total("warmup"), "s");
}

// ---- request/response worlds (admission, churn, scale, socket) -------------------

struct WorldConfig {
  core::SystemConfig system{};
  workload::HeterogeneityConfig het{};
  workload::PopulationConfig pop{};
  workload::ProvisionConfig prov{};
  workload::RequestConfig req{};
};

// The population, request synthesis and task bookkeeping of one System.
class World {
 public:
  World(const WorldConfig& c, std::uint64_t traffic, bool spans)
      : config(c),
        catalog(media::ladder_catalog()),
        system(c.system),
        rng(c.system.seed * 7919 + 17),
        population(catalog, c.pop, system, rng),
        factory(workload::make_peer_factory(catalog, population, c.het,
                                            c.prov, system, rng)),
        synth(catalog, population, c.req),
        watch(system, 1.0, spans) {
    // The arrival and churn drivers fork their streams from this one.
    system.workload_rng() = util::Rng(traffic);
  }

  void start_arrivals(double rate, SimTime until) {
    arrivals = std::make_unique<workload::WorkloadDriver>(
        system, std::make_unique<workload::PoissonArrivals>(rate), synth);
    arrivals->start(until);
  }

  WorldConfig config;
  media::Catalog catalog;
  core::System system;
  util::Rng rng;
  workload::ObjectPopulation population;
  workload::PeerFactory factory;
  workload::RequestSynthesizer synth;
  TaskWatch watch;
  // Declared last: destroyed first, while the System they drive is alive.
  std::unique_ptr<workload::WorkloadDriver> arrivals;
  std::unique_ptr<workload::ChurnDriver> churn;
};

// Allocation queries as an RM would see them: an object of its domain in
// one of the formats users ask for, delivered to one of its members.
QueryFn rm_queries(workload::RequestSynthesizer& synth) {
  return [&synth](const core::InfoBase& info, util::Rng& rng, SimTime now) {
    const std::vector<util::ObjectId> objects = info.all_objects();
    const util::ObjectId object = objects[rng.below(objects.size())];
    const std::vector<util::PeerId> members = info.domain().member_ids();
    core::AllocationRequest request;
    request.task = util::TaskId{(1ULL << 62) + rng.below(1ULL << 32)};
    request.q = synth.draw_for(info.locations(object)->front().object, rng);
    request.sink = members[rng.below(members.size())];
    request.now = request.submitted_at = now;
    return request;
  };
}

// Outcome metrics over the tasks submitted in the measured phase, the
// ledger checks over all of them, and the outcome digest.
void task_outcomes(const core::System& system, const TaskWatch& watch,
                   double wall_per_sim, Report& r) {
  const core::TaskLedger& ledger = system.ledger();
  const std::vector<util::TaskId>& ids = watch.submitted();
  util::Samples admit, response;
  std::uint64_t measured = 0, on_time = 0, bad = 0, lost = 0;
  r.digest = kFnvOffset;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const core::TaskRecord* rec = ledger.record(ids[i]);
    if (rec == nullptr) continue;
    fnv_mix(r.digest, ids[i].value());
    fnv_mix(r.digest, static_cast<std::uint64_t>(rec->status));
    fnv_mix(r.digest, rec->missed_deadline ? 1 : 0);
    fnv_mix(r.digest, static_cast<std::uint64_t>(rec->finished));
    if (i < watch.marked()) continue;
    ++measured;
    switch (rec->status) {
      case core::TaskStatus::Completed:
        if (!rec->missed_deadline) ++on_time;
        response.add(util::to_seconds(rec->response_time()) * wall_per_sim);
        break;
      case core::TaskStatus::Rejected:
      case core::TaskStatus::Failed:
        ++bad;
        break;
      case core::TaskStatus::Orphaned:
      case core::TaskStatus::Pending:
        ++bad;
        // Never answered at all (no admit, no reject): the operation
        // failed, unless its submitter crashed or left and no one is there
        // to answer. Refusals and late completions are answers.
        if (watch.admit_ms(ids[i]) < 0.0) {
          const core::PeerNode* origin = system.peer(rec->origin);
          if (origin != nullptr && origin->alive()) ++lost;
        }
        break;
    }
    if (const double ms = watch.admit_ms(ids[i]); ms >= 0.0) admit.add(ms);
  }
  r.attempted = measured;
  r.failed = lost;
  const double n = std::max<double>(1.0, static_cast<double>(measured));
  r.set("goodput", static_cast<double>(on_time) / n, "ratio", measured);
  r.set("fail_rate", static_cast<double>(bad) / n, "ratio", measured);
  r.percentiles("admit_p50_ms", "admit_p99_ms", "ms", admit);
  r.percentiles("response_p50_s", "response_p99_s", "s", response);

  const std::size_t terminal = ledger.completed() + ledger.rejected() +
                               ledger.failed() + ledger.orphaned();
  r.check("ledger.identity",
          ledger.pending() == 0 && terminal == ledger.submitted() &&
              ledger.response_times_s().count() == ledger.completed() &&
              ledger.completed_on_time() + ledger.missed() ==
                  ledger.completed(),
          "submitted " + std::to_string(ledger.submitted()) + " = completed " +
              std::to_string(ledger.completed()) + " + rejected " +
              std::to_string(ledger.rejected()) + " + failed " +
              std::to_string(ledger.failed()) + " + orphaned " +
              std::to_string(ledger.orphaned()));
  r.check("trace.submitted_matches_ledger", ids.size() == ledger.submitted(),
          std::to_string(ids.size()) + " TaskSubmitted events");
  r.check("trace.not_dropped", !watch.dropped_any(),
          "tracer ring overflowed within a slice");
}

// Per-layer counts from a metrics snapshot, summed over labels. An empty
// registry reports every control-plane layer idle, so runs without a
// System still print the full metric set.
void layer_counts(const obs::MetricsRegistry& registry, bool socket,
                  Report& r) {
  std::map<std::string, double, std::less<>> sum;
  std::map<std::string, double, std::less<>> msgs, bytes;
  for (const auto& s : registry.snapshot()) {
    const double v = s.kind == obs::MetricKind::Counter
                         ? static_cast<double>(s.counter_value)
                         : s.gauge_value;
    if (s.kind == obs::MetricKind::Histogram) continue;
    sum[s.name] += v;
    for (const auto& [k, type] : s.labels) {
      if (k != "type") continue;
      if (s.name == "net.messages_by_type") msgs[type] += v;
      if (s.name == "net.bytes_by_type") bytes[type] += v;
    }
  }
  const auto get = [](const auto& m, std::string_view k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto count = [&](const char* name, double v) {
    r.set(name, v, "count");
  };

  const double hits = get(sum, "graph.path_cache.hits");
  const double misses = get(sum, "graph.path_cache.misses");
  r.set("graph.cache_hit_rate", ratio(hits, hits + misses), "ratio");
  count("graph.cache_invalidations", get(sum, "graph.path_cache.invalidations"));

  count("core.queries", get(sum, "rm.queries_received"));
  count("core.redirects", get(sum, "rm.redirects_out"));
  count("core.rejects", get(sum, "rm.tasks_rejected"));
  count("core.reassignments", get(sum, "rm.reassignments"));
  r.set("core.recovery_ratio",
        ratio(get(sum, "rm.recoveries_succeeded"),
              get(sum, "rm.recoveries_attempted")),
        "ratio");
  count("core.backup_syncs", get(msgs, "core.backup_sync"));
  count("core.duplicate_queries", get(sum, "rm.duplicate_queries"));
  r.set("core.bytes_per_peer", get(sum, "core.peers.idle_bytes_per_peer"),
        "B");
  count("core.materialized_peak", get(sum, "core.peers.materialized"));

  count("overlay.joins",
        get(msgs, "overlay.join_accept") + get(msgs, "overlay.join_promote"));
  count("overlay.heartbeats", get(msgs, "overlay.rm_heartbeat"));
  count("gossip.summaries", get(msgs, "gossip.summaries"));
  r.set("gossip.bytes", get(bytes, "gossip.summaries"), "B");
  count("profile.reports", get(msgs, "core.profiler_report"));
  count("profile.acks", get(msgs, "core.report_ack"));

  count("sched.jobs", get(sum, "sched.processor.submitted"));
  const double late = get(sum, "sched.processor.completed_late");
  r.set("sched.late_ratio",
        ratio(late, late + get(sum, "sched.processor.completed_on_time")),
        "ratio");
  count("sched.preemptions", get(sum, "sched.processor.preemptions"));

  const double sent = get(sum, "net.messages_sent");
  count("net.messages", sent);
  r.set("net.bytes", get(sum, "net.bytes_sent"), "B");
  r.set("net.msgs_per_task", ratio(sent, get(sum, "tasks.submitted")),
        "count");
  r.set("net.delivery_ratio", ratio(get(sum, "net.messages_delivered"), sent),
        "ratio");
  count("net.frames", socket ? sent : 0.0);  // one frame per message
  count("net.undeliverable", get(sum, "net.messages_undeliverable"));
  count("sim.tombstones_compacted",
        get(sum, "sim.event_queue.tombstones_compacted"));

  count("stream.chunk_copies", get(sum, "stream.chunks_generated"));
  count("stream.chains_built", get(sum, "stream.chains_built"));
  count("stream.placement_failures", get(sum, "stream.placement_failures"));
  count("stream.late", get(sum, "stream.chunks_late"));
  r.set("stream.uplink_saturation_max",
        get(sum, "stream.upload_saturation_max"), "ratio");
}

void export_counts(const core::System& system, Report& r, Spans& spans) {
  Spans::Scope e(spans, "export");
  obs::MetricsRegistry registry;
  {
    Spans::Scope s(spans, "metrics.publish_all");
    metrics::publish_all(system, registry);
  }
  layer_counts(registry, !system.has_sim_network(), r);
}

void span_shares(const TaskWatch& watch, Report& r) {
  const TaskWatch::PathSums& p = watch.path_sums();
  const double total = p.admission + p.hop + p.coordination;
  const auto share = [&](double x) { return total > 0.0 ? x / total : 0.0; };
  r.set("span.admission_share", share(p.admission), "ratio", p.tasks);
  r.set("span.hop_share", share(p.hop), "ratio", p.tasks);
  r.set("span.coordination_share", share(p.coordination), "ratio", p.tasks);
}

// The traced pass's layer probes, given the workload's replay inputs.
void run_probes(const std::vector<AllocSnapshot>& snapshots,
                const net::Transport& network, const core::SystemConfig& cfg,
                const QueryFn& query, const net::NetworkStats& stats,
                const MessageSources& sources, const RunOptions& o,
                Spans& spans, Report& r) {
  Spans::Scope probe(spans, "probe");
  {
    Spans::Scope s(spans, "graph.alloc_replay");
    AllocReplay a;
    // 256 queries per RM, and never fewer than 1000 in total, so the p99
    // has its samples.
    const std::size_t per_rm = std::max<std::size_t>(
        256, (1000 + snapshots.size() - 1) / std::max<std::size_t>(
                                                 1, snapshots.size()));
    replay_allocations(snapshots, network, cfg, query, o.seed ^ 0xa110cULL,
                       per_rm, a);
    const double q = std::max<double>(1.0, static_cast<double>(a.queries));
    r.set("graph.vertices_per_query", static_cast<double>(a.vertices) / q,
          "count", a.queries);
    r.set("graph.candidates_per_query", static_cast<double>(a.candidates) / q,
          "count", a.queries);
    r.set("graph.feasible_ratio",
          a.candidates > 0 ? static_cast<double>(a.feasible) /
                                 static_cast<double>(a.candidates)
                           : 0.0,
          "ratio", a.candidates);
    r.percentiles("graph.alloc_us_p50", "graph.alloc_us_p99", "us",
                  a.alloc_us);
    r.check("graph.cache_equivalence", a.queries > 0 && a.mismatches == 0,
            std::to_string(a.mismatches) + " of " + std::to_string(a.queries) +
                " replayed queries differ with the path cache cleared");
  }
  {
    Spans::Scope s(spans, "net.codec_replay");
    const CodecReplay c = replay_codec(stats, sources);
    r.set("net.encode_ns_per_kib", c.encode_ns_per_kib, "ns", c.frames);
    r.set("net.decode_ns_per_kib", c.decode_ns_per_kib, "ns", c.frames);
    std::string types;
    for (const std::string& t : c.types) types += (types.empty() ? "" : ",") + t;
    r.check("net.codec_round_trip", c.mismatches == 0 && c.frames > 0,
            "types " + types);
  }
  {
    Spans::Scope s(spans, "net.crc");
    r.set("net.crc_ns_64b", crc_ns(64, o.smoke ? 200000 : 2000000), "ns");
    const double ns = crc_ns(64 * 1024, o.smoke ? 256 : 2048);
    r.set("net.crc_gib_s_64k", 65536.0 / ns * 1e9 / (1024.0 * 1024 * 1024),
          "GiB/s");
  }
  {
    Spans::Scope s(spans, "net.loopback");
    const Loopback l =
        loopback_probe(o.probe_port, 1000, o.smoke ? 16 : 128);
    r.percentiles("net.loopback_rtt_us_p50", "net.loopback_rtt_us_p99", "us",
                  l.rtt_us);
    r.set("net.loopback_mib_s", l.mib_s, "MiB/s");
    r.check("net.loopback", l.ok, l.error);
  }
}

void system_probes(World& w, const std::vector<AllocSnapshot>& snapshots,
                   const RunOptions& o, Spans& spans, Report& r) {
  MessageSources src;
  src.bloom_bits = w.config.system.bloom_bits;
  src.bloom_hashes = w.config.system.bloom_hashes;
  for (const util::PeerId id : w.system.alive_peer_ids()) {
    const core::PeerNode* node = w.system.peer(id);
    if (node == nullptr) continue;
    if (src.info == nullptr && node->resource_manager() != nullptr) {
      src.info = &node->resource_manager()->info();
    }
    if (src.inventory.services.empty() && !node->inventory().services.empty()) {
      src.spec = node->spec();
      src.inventory = node->inventory();
    }
  }
  if (w.population.size() > 0) src.object = w.population.at(0);
  run_probes(snapshots, w.system.transport(), w.system.config(),
             rm_queries(w.synth), w.system.transport().stats(), src, o, spans,
             r);
}

// Has the slicer copy up to 32 RMs' info bases at 25, 50 and 75% of
// [start, end), the allocation replay probe's input.
void snapshot_quarters(Slicer& slicer, core::System& system, SimTime start,
                       SimTime end, Spans& spans,
                       std::vector<AllocSnapshot>& out) {
  for (int k = 1; k <= 3; ++k) {
    slicer.milestones.push_back(start + (end - start) * k / 4);
  }
  slicer.on_milestone = [&system, &spans, &out] {
    Spans::Scope s(spans, "graph.alloc_snapshot");
    for (AllocSnapshot& a : snapshot_rms(system, 32)) {
      out.push_back(std::move(a));
    }
  };
}

// ---- admission / churn -------------------------------------------------------------

void run_request_world(const RunOptions& o, bool churn, Spans& spans,
                       Report& r) {
  WorldConfig c;
  c.system.seed = kDeploymentSeed;
  c.system.enable_spans = o.traced;
  const std::size_t peers = sized<std::size_t>(o, 1024, 64);
  c.pop.object_count = peers * 2;
  // Open-loop Poisson arrivals; smoke keeps the per-peer rate.
  const double rate = (churn ? 30.0 : 60.0) * static_cast<double>(peers) / 1024.0;
  const SimDuration warmup = util::seconds(sized(o, 20, 10));
  const SimDuration load =
      run_length(o, churn ? sized(o, 280.0, 1000.0) : sized(o, 170.0, 300.0));
  const SimDuration drain = util::seconds(30);
  Slicer slicer;
  slicer.slice = util::milliseconds(100);

  std::unique_ptr<World> w = timed_setup(spans, r, [&] {
    std::unique_ptr<World> world;
    {
      Spans::Scope s(spans, "workload.build");
      world = std::make_unique<World>(c, traffic_seed(o), o.traced);
    }
    {
      Spans::Scope s(spans, "core.bootstrap");
      workload::bootstrap_network(world->system, world->factory, peers);
    }
    Spans::Scope s(spans, "warmup");
    const SimTime now = world->system.simulator().now();
    world->start_arrivals(rate, now + warmup + load);
    if (churn) {
      workload::ChurnConfig cc;  // 300 s sessions, half crashes, respawn
      world->churn = std::make_unique<workload::ChurnDriver>(
          world->system, world->factory, cc);
      world->churn->track_all_alive();
    }
    Slicer warm = slicer;
    warm.span = "warmup.slice";
    advance(world->system, world->watch, now + warmup, spans, warm);
    return world;
  });
  if (o.setup_only) return;

  std::vector<AllocSnapshot> snapshots;
  const SimTime start = w->system.simulator().now();
  const SimTime end = start + load + drain;
  if (o.traced) {
    snapshot_quarters(slicer, w->system, start, end, spans, snapshots);
  }
  w->watch.mark();
  Phase phase;
  phase.start(w->system.simulator());
  {
    Spans::Scope run(spans, "run");
    advance(w->system, w->watch, end, spans, slicer);
    w->system.ledger().orphan_pending(w->system.simulator().now());
  }
  r.set("run_wall_s", phase.finish(w->system.simulator(), r), "s");
  if (w->churn) w->churn->stop();
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");

  task_outcomes(w->system, w->watch, 1.0, r);
  export_counts(w->system, r, spans);
  if (o.traced) {
    system_probes(*w, snapshots, o, spans, r);
    span_shares(w->watch, r);
    r.set("core.bootstrap_s", spans.total("core.bootstrap"), "s");
  }
}

// ---- scale ---------------------------------------------------------------------------

void run_scale_world(const RunOptions& o, Spans& spans, Report& r) {
  WorldConfig c;
  c.system.seed = kDeploymentSeed;
  c.system.enable_spans = o.traced;
  const std::size_t total = sized<std::size_t>(o, 1000000, 50000);
  const std::size_t core_peers = sized<std::size_t>(o, 512, 64);
  c.pop.object_count = core_peers * 2;
  // Short clips: a wave's tasks finish within its drain, so its peers are
  // quiescent and can be demoted when it ends.
  c.pop.min_duration_s = 1.0;
  c.pop.max_duration_s = 3.0;
  // Waves of edge peers join, submit, go idle and return to rows; the core
  // stays. Larger waves, or demoting idle core peers too, made join retries
  // and domain churn (and so the run's cost) swing with the traffic seed.
  const std::size_t wave_peers = sized<std::size_t>(o, 250, 25);
  const std::size_t waves = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(9.0 * o.seconds / 10.0)));
  const SimDuration wave_load = util::seconds(sized(o, 10, 25));
  const SimDuration wave_drain = util::seconds(5);
  // After the last wave, tasks still running get to finish.
  const SimDuration final_drain = util::seconds(10);
  constexpr double kRatePerPeer = 0.06;
  Slicer slicer;
  slicer.slice = util::milliseconds(sized(o, 10, 100));

  std::vector<util::PeerId> lazy;
  std::unique_ptr<World> w = timed_setup(spans, r, [&] {
    std::unique_ptr<World> world;
    {
      Spans::Scope s(spans, "workload.build");
      world = std::make_unique<World>(c, traffic_seed(o), o.traced);
    }
    {
      Spans::Scope s(spans, "core.bootstrap");
      workload::bootstrap_network(world->system, world->factory, core_peers);
    }
    {
      // Consumers drawn from the same heterogeneity model, carrying no
      // inventory: an idle peer costs a registry row, not heap.
      Spans::Scope s(spans, "core.register");
      world->system.reserve_peers(total);
      util::Rng lazy_rng(kDeploymentSeed * 7919 + 101);
      lazy.reserve(total - core_peers);
      for (std::size_t i = core_peers; i < total; ++i) {
        const auto spec = workload::draw_peer_spec(
            c.het, lazy_rng, world->system.simulator().now());
        lazy.push_back(world->system.add_lazy_peer(spec, {}));
      }
    }
    Spans::Scope s(spans, "warmup");
    const SimTime now = world->system.simulator().now();
    world->start_arrivals(kRatePerPeer * static_cast<double>(core_peers),
                          now + wave_load);
    Slicer warm = slicer;
    warm.span = "warmup.slice";
    advance(world->system, world->watch, now + wave_load + wave_drain, spans,
            warm);
    return world;
  });
  if (o.setup_only) return;

  const std::size_t footprint = w->system.peer_registry().footprint_bytes();
  const double bytes_per_peer =
      static_cast<double>(footprint) / static_cast<double>(total);
  r.check("scale.bytes_per_peer", bytes_per_peer <= 128.0,
          std::to_string(bytes_per_peer) + " B/peer (budget 128)");

  std::vector<AllocSnapshot> snapshots;
  const SimTime start = w->system.simulator().now();
  const SimDuration per_wave = wave_load + wave_drain;
  if (o.traced) {
    snapshot_quarters(
        slicer, w->system, start,
        start + per_wave * static_cast<SimDuration>(waves) + final_drain, spans,
        snapshots);
  }
  w->watch.mark();
  std::size_t materialized_peak = w->system.peer_registry().materialized();
  std::size_t demoted = 0;
  std::vector<util::PeerId> wave_ids;
  Phase phase;
  phase.start(w->system.simulator());
  {
    Spans::Scope run(spans, "run");
    const std::size_t stride =
        std::max<std::size_t>(1, lazy.size() / wave_peers);
    for (std::size_t wave = 0; wave < waves; ++wave) {
      {
        // Stride-sampled across the whole lazy range, so row locality does
        // not flatter the run.
        Spans::Scope s(spans, "core.materialize");
        wave_ids.clear();
        for (std::size_t i = wave;
             i < lazy.size() && wave_ids.size() < wave_peers; i += stride) {
          if (w->system.materialize_peer(lazy[i])) wave_ids.push_back(lazy[i]);
        }
      }
      const SimTime now = w->system.simulator().now();
      w->start_arrivals(
          kRatePerPeer * static_cast<double>(core_peers + wave_peers),
          now + wave_load);
      advance(w->system, w->watch, now + per_wave, spans, slicer);
      materialized_peak =
          std::max(materialized_peak, w->system.peer_registry().materialized());
      // Refused for peers still busy or holding an RM role.
      Spans::Scope s(spans, "core.demote");
      for (const util::PeerId id : wave_ids) {
        demoted += w->system.demote_peer(id) ? 1 : 0;
      }
    }
    advance(w->system, w->watch, w->system.simulator().now() + final_drain,
            spans, slicer);
    w->system.ledger().orphan_pending(w->system.simulator().now());
  }
  r.set("run_wall_s", phase.finish(w->system.simulator(), r), "s");
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");
  r.check("scale.demoted", demoted > 0,
          std::to_string(demoted) + " peers demoted back to rows");

  task_outcomes(w->system, w->watch, 1.0, r);
  export_counts(w->system, r, spans);
  r.set("core.materialized_peak", static_cast<double>(materialized_peak),
        "count");
  r.set("core.bytes_per_peer", bytes_per_peer, "B");
  if (o.traced) {
    system_probes(*w, snapshots, o, spans, r);
    span_shares(w->watch, r);
    r.set("core.bootstrap_s", spans.total("core.bootstrap"), "s");
    r.set("core.register_s", spans.total("core.register"), "s");
    r.set("core.materialize_ms", spans.total("core.materialize") * 1e3, "ms",
          waves);
    r.set("core.demote_ms", spans.total("core.demote") * 1e3, "ms", waves);
  }
}

// ---- stream ---------------------------------------------------------------------------

struct StreamWorld {
  media::Catalog catalog = media::ladder_catalog();
  workload::StreamPlan plan;
  sim::Simulator sim{1};
  net::Topology topo{};
  std::unique_ptr<net::Network> network;
  core::SystemConfig config{};
  std::unique_ptr<stream::StreamEngine> engine;
  // What the engine was given, kept for the allocation replay's mirror.
  std::vector<std::pair<overlay::PeerSpec, std::vector<core::ServiceOffering>>>
      pool;
};

// Keeps the plan's lineup and audience (channels, formats, sinks, targets)
// and redraws when each viewer joins and how long it watches, with the
// scenario's own distributions: uniform joins over the window (the flash
// crowd within its spread) and exponential sessions.
void reseed_audience(workload::StreamPlan& plan, std::uint64_t seed) {
  const workload::StreamingConfig& c = plan.config;
  util::Rng rng(seed);
  for (workload::ViewerPlan& v : plan.viewers) {
    const SimTime from = v.flash ? c.flash_at : c.first_join;
    const SimDuration span =
        v.flash ? c.flash_spread : c.live_window - c.first_join;
    v.join = std::clamp<SimTime>(
        from + static_cast<SimTime>(rng.below(static_cast<std::uint64_t>(
                   std::max<SimDuration>(span, 1)))),
        0, c.live_window - 1);
    v.leave = std::min<SimTime>(
        v.join + std::max<SimDuration>(
                     util::from_seconds(rng.exponential(c.mean_watch_s)),
                     util::milliseconds(100)),
        c.live_window);
  }
  std::sort(plan.viewers.begin(), plan.viewers.end(),
            [](const workload::ViewerPlan& a, const workload::ViewerPlan& b) {
              return a.join != b.join ? a.join < b.join : a.id < b.id;
            });
}

void run_stream_world(const RunOptions& o, Spans& spans, Report& r) {
  const std::size_t pool = sized<std::size_t>(o, 960, 48);
  constexpr std::uint32_t kChannels = 8;
  constexpr std::size_t kServicesPerPeer = 6;
  // 27,000 viewers over a 9 h window at --seconds=10: about 50 watching
  // at once (60 s mean session), plus a 200-viewer flash crowd mid-window.
  const SimDuration window = run_length(o, sized(o, 32400.0, 1440.0));
  workload::StreamingConfig sc;
  sc.seed = kDeploymentSeed;
  sc.channels = kChannels;
  sc.viewers = static_cast<std::uint32_t>(
      std::lround(sized(o, 27000.0, 1200.0) * o.seconds / 10.0));
  sc.flash_crowd = sized(o, 200, 10);
  sc.flash_at = window / 2;
  sc.live_window = window;
  sc.mean_watch_s = 60.0;
  const SimDuration warmup = util::seconds(120);
  Slicer slicer;
  slicer.slice = util::seconds(1);

  std::unique_ptr<StreamWorld> w = timed_setup(spans, r, [&] {
    auto world = std::make_unique<StreamWorld>();
    {
      Spans::Scope s(spans, "workload.build");
      std::vector<util::PeerId> sources, sinks;
      for (std::uint32_t ch = 0; ch < kChannels; ++ch) {
        sources.push_back(util::PeerId{ch});
      }
      // One dedicated consumer per potential viewer, outside the pool.
      for (std::uint32_t v = 0; v < sc.viewers + sc.flash_crowd; ++v) {
        sinks.push_back(util::PeerId{1000000 + v});
      }
      world->plan =
          workload::StreamingScenario(world->catalog, sc).build(sources, sinks);
      reseed_audience(world->plan, traffic_seed(o));
    }
    {
      Spans::Scope s(spans, "stream.start");
      world->network =
          std::make_unique<net::Network>(world->sim, world->topo);
      world->config.allocator = core::AllocatorKind::PaperBfs;
      world->engine = std::make_unique<stream::StreamEngine>(
          world->sim, *world->network, world->config, world->plan);
      util::Rng rng(kDeploymentSeed * 0x9e3779b97f4a7c15ULL + 0xE11);
      const auto& conversions = world->catalog.conversions();
      std::uint64_t service_id = 1;
      for (std::size_t p = 0; p < pool; ++p) {
        overlay::PeerSpec spec;
        spec.id = util::PeerId{p};
        spec.capacity_ops_per_s = rng.uniform(30e6, 90e6);
        spec.link.uplink_bytes_per_s = rng.uniform(1.5e6, 6.0e6);
        spec.link.downlink_bytes_per_s = spec.link.uplink_bytes_per_s;
        world->topo.place_at(spec.id,
                             {rng.uniform(0, 1000), rng.uniform(0, 1000)});
        std::vector<core::ServiceOffering> services;
        // Round-robin over the catalog: every conversion is hosted by
        // many peers, so chain feasibility depends on load, not on luck.
        for (std::size_t i = 0; i < kServicesPerPeer; ++i) {
          services.push_back(core::ServiceOffering{
              util::ServiceId{service_id++},
              conversions[(p * kServicesPerPeer + i) % conversions.size()]});
        }
        world->engine->add_peer(spec, services);
        world->pool.emplace_back(spec, std::move(services));
      }
      for (const workload::ViewerPlan& v : world->plan.viewers) {
        world->topo.place_at(v.sink,
                             {rng.uniform(0, 1000), rng.uniform(0, 1000)});
      }
      world->engine->start();
    }
    Spans::Scope warm_span(spans, "warmup");
    Slicer warm = slicer;
    warm.span = "warmup.slice";
    advance([&](SimTime t) { world->sim.run_until(t); }, world->sim.now(),
            warmup, nullptr, spans, warm);
    return world;
  });
  if (o.setup_only) return;

  const SimTime end = w->plan.config.live_window +
                      w->plan.config.chunk_deadline +
                      w->plan.config.late_grace + util::seconds(5);
  const std::uint64_t warm_chunks = w->engine->stats().chunks_generated;
  Phase phase;
  phase.start(w->sim);
  {
    Spans::Scope run(spans, "run");
    advance([&](SimTime t) { w->sim.run_until(t); }, w->sim.now(), end,
            nullptr, spans, slicer);
  }
  r.set("run_wall_s", phase.finish(w->sim, r), "s");
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");

  const stream::StreamStats& st = w->engine->stats();
  const std::uint64_t run_chunks = st.chunks_generated - warm_chunks;
  const double generated =
      std::max<double>(1.0, static_cast<double>(st.chunks_generated));
  r.attempted = st.chunks_generated;
  r.failed = st.chunks_in_flight;
  r.digest = w->engine->digest();
  r.set("goodput", static_cast<double>(st.chunks_delivered) / generated,
        "ratio", st.chunks_generated);
  r.set("fail_rate", static_cast<double>(st.chunks_dropped) / generated,
        "ratio", st.chunks_generated);
  r.set("continuity", w->engine->continuity_index(), "ratio",
        st.chunks_generated);
  const std::optional<std::string> accounting = w->engine->accounting_error();
  r.check("stream.accounting", !accounting && st.chunks_in_flight == 0,
          accounting.value_or(std::to_string(st.chunks_in_flight) +
                              " chunk copies still in flight"));

  {
    // No RM protocol runs: the control-plane layers report no work.
    Spans::Scope e(spans, "export");
    obs::MetricsRegistry registry;
    {
      Spans::Scope s(spans, "stream.publish");
      w->engine->publish(registry);
      w->sim.publish_queue(registry);
    }
    layer_counts(registry, false, r);
  }

  if (o.traced) {
    // The engine's InfoBase is private: replay placements against a mirror
    // built from the same pool, with the plan's (channel, target) pairs.
    core::InfoBase mirror(util::DomainId{0xE11}, util::PeerId{0});
    for (const auto& [spec, services] : w->pool) {
      mirror.add_member(spec, 0);
      core::PeerAnnounce a;
      a.spec = spec;
      a.services = services;
      mirror.add_inventory(a);
    }
    MessageSources src;
    for (const workload::ChannelPlan& ch : w->plan.channels) {
      media::MediaObject obj;
      obj.id = ch.object;
      obj.name = "channel-" + std::to_string(ch.id);
      obj.format = ch.source_format;
      obj.duration_s = util::to_seconds(w->plan.config.chunk_period);
      obj.content_hash = ch.object.value();
      core::PeerAnnounce a;
      a.spec.id = ch.source;
      a.objects = {obj};
      mirror.add_inventory(a);
      src.object = obj;
    }
    const workload::StreamPlan& plan = w->plan;
    const QueryFn query = [&plan](const core::InfoBase&, util::Rng& rng,
                                  SimTime now) {
      const workload::ViewerPlan& v =
          plan.viewers[rng.below(plan.viewers.size())];
      core::AllocationRequest req;
      req.task = util::TaskId{(1ULL << 62) + rng.below(1ULL << 32)};
      req.q.object = plan.channels[v.channel].object;
      req.q.acceptable_formats = {v.target};
      req.q.deadline = plan.config.chunk_deadline + plan.config.late_grace;
      req.sink = v.sink;
      req.now = req.submitted_at = now;
      return req;
    };
    src.info = &mirror;
    src.spec = w->pool.front().first;
    src.inventory.services = w->pool.front().second;
    run_probes({AllocSnapshot{mirror.snapshot(), w->sim.now()}}, *w->network,
               w->config, query, w->network->stats(), src, o, spans, r);
    r.set("stream.ns_per_chunk",
          spans.self("sim.slice") * 1e9 /
              std::max<double>(1.0, static_cast<double>(run_chunks)),
          "ns");
    r.set("stream.start_ms", spans.total("stream.start") * 1e3, "ms");
    for (const char* name : {"span.admission_share", "span.hop_share",
                             "span.coordination_share"}) {
      r.set(name, 0.0, "ratio");
    }
  }
}

// ---- socket ----------------------------------------------------------------------------

struct SocketWorld {
  workload::DeploymentPlan plan;
  std::unique_ptr<core::System> system;
  std::unique_ptr<TaskWatch> watch;
};

// Keeps the plan's request mix and redraws the schedule: Poisson arrival
// times at the configured rate, each a uniformly random origin and a
// request drawn from the mix.
void reseed_submissions(workload::DeploymentPlan& plan, std::uint64_t seed) {
  const workload::DeploymentConfig& c = plan.config;
  const std::vector<workload::PlannedSubmission> mix = plan.submissions;
  plan.submissions.clear();
  util::Rng rng(seed);
  double t_s = 0.0;
  while (!mix.empty()) {
    t_s += rng.exponential(1.0 / c.arrival_rate);
    if (util::from_seconds(t_s) > c.workload) break;
    workload::PlannedSubmission s = mix[rng.below(mix.size())];
    s.at = util::from_seconds(t_s);
    s.origin = static_cast<std::uint32_t>(rng.below(c.peers));
    plan.submissions.push_back(std::move(s));
  }
}

void run_socket_world(const RunOptions& o, Spans& spans, Report& r) {
  // Wall-clock paced: sim time runs 1/kTimeScale times faster than wall.
  const double kTimeScale = sized(o, 0.02, 0.004);
  workload::DeploymentConfig dc = workload::DeploymentConfig::benign(kDeploymentSeed, 4);
  dc.max_domain_size = 8;  // one domain: no gossip, one RM
  dc.provision.services_per_peer = 32;
  // Short clips keep the frame bytes per task, and so the CPU, low.
  dc.population.min_duration_s = 0.2;
  dc.population.max_duration_s = 0.5;
  dc.arrival_rate = 2.5;
  dc.workload = run_length(o, sized(o, 500.0, 450.0));
  dc.drain = util::seconds(20);
  dc.task_cap = 1u << 30;
  dc.time_scale = kTimeScale;
  dc.base_port = o.deploy_port;
  Slicer slicer;
  slicer.slice = util::milliseconds(250);
  slicer.wall_per_sim = kTimeScale;

  std::unique_ptr<SocketWorld> w = timed_setup(spans, r, [&] {
    auto world = std::make_unique<SocketWorld>();
    {
      Spans::Scope s(spans, "workload.build");
      world->plan = workload::DeploymentPlan::build(dc);
      reseed_submissions(world->plan, traffic_seed(o));
    }
    {
      Spans::Scope s(spans, "deploy.schedule");
      core::SystemConfig sc =
          world->plan.system_config(core::TransportKind::Socket, 0);
      sc.enable_spans = o.traced;
      world->system = std::make_unique<core::System>(sc);
      world->watch =
          std::make_unique<TaskWatch>(*world->system, kTimeScale, o.traced);
      world->plan.schedule(*world->system, 0, dc.peers);
    }
    Spans::Scope s(spans, "warmup");
    Slicer warm = slicer;
    warm.span = "warmup.slice";
    advance(*world->system, *world->watch, dc.workload_start(), spans, warm);
    return world;
  });
  if (o.setup_only) return;

  core::System& system = *w->system;
  std::vector<AllocSnapshot> snapshots;
  const SimTime start = system.simulator().now();
  const SimTime end = start + dc.workload + dc.drain;
  if (o.traced) {
    snapshot_quarters(slicer, system, start, end, spans, snapshots);
  }
  slicer.paced = true;
  slicer.wall_epoch = wall_s();
  slicer.sim_epoch = start;
  w->watch->mark();
  Phase phase;
  phase.start(system.simulator());
  {
    Spans::Scope run(spans, "run");
    advance(system, *w->watch, end, spans, slicer);
    {
      // Frames still in flight and the trace events they cause.
      Spans::Scope s(spans, "net.drain");
      system.drain_transport(200);
      w->watch->drain();
    }
    system.ledger().orphan_pending(system.simulator().now());
  }
  const double wall = phase.finish(system.simulator(), r);
  r.set("run_wall_s", wall, "s");
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");
  r.percentiles("net.gen_lag_ms_p50", "net.gen_lag_ms_p99", "ms",
                slicer.lag_ms);
  const net::NetworkStats& ns = system.transport().stats();
  r.check("net.frames_corrupt", ns.frames_corrupt == 0,
          std::to_string(ns.frames_corrupt) + " corrupt frames");
  r.set("net.cpu_us_per_frame",
        r.find("cpu_s")->value * 1e6 /
            std::max<double>(1.0, static_cast<double>(ns.messages_sent)),
        "us");

  task_outcomes(system, *w->watch, kTimeScale, r);
  export_counts(system, r, spans);
  if (o.traced) {
    MessageSources src;
    const core::PeerNode* rm_node = nullptr;
    for (const util::PeerId id : system.alive_peer_ids()) {
      const core::PeerNode* node = system.peer(id);
      if (node != nullptr && node->resource_manager() != nullptr) {
        rm_node = node;
      }
    }
    if (rm_node != nullptr) {
      src.info = &rm_node->resource_manager()->info();
      src.spec = rm_node->spec();
      src.inventory = rm_node->inventory();
      if (!src.inventory.objects.empty()) src.object = src.inventory.objects[0];
    }
    // The deployment's own submissions, replayed against the RM's view.
    const QueryFn query = [&](const core::InfoBase& info, util::Rng& rng,
                              SimTime now) {
      const std::vector<util::PeerId> members = info.domain().member_ids();
      core::AllocationRequest request;
      request.task = util::TaskId{(1ULL << 62) + rng.below(1ULL << 32)};
      request.q =
          w->plan.submissions[rng.below(w->plan.submissions.size())].qos;
      request.sink = members[rng.below(members.size())];
      request.now = request.submitted_at = now;
      return request;
    };
    run_probes(snapshots, system.transport(), system.config(), query, ns, src,
               o, spans, r);
    span_shares(*w->watch, r);
  }
}

}  // namespace

void run_pass(const RunOptions& options, Spans& spans, Report& report) {
  Spans::Scope root(spans, "bench");
  const std::string& w = options.workload;
  if (w == "admission") {
    run_request_world(options, false, spans, report);
  } else if (w == "churn") {
    run_request_world(options, true, spans, report);
  } else if (w == "scale") {
    run_scale_world(options, spans, report);
  } else if (w == "stream") {
    run_stream_world(options, spans, report);
  } else if (w == "socket") {
    run_socket_world(options, spans, report);
  } else {
    throw std::invalid_argument("unknown workload '" + w + "'");
  }
  if (options.traced) set_span_timings(spans, report);
}

}  // namespace p2prm::bench_e2e
