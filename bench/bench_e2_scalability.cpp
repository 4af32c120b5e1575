// E2 — "our proposed schemes scale well with respect to the number of
// peers".
//
// Grows the network from 16 to 512 peers with the per-peer arrival rate
// held constant, and reports deadline performance, fairness, per-task
// control overhead, per-RM control load and domain structure. A scalable
// design keeps the per-peer/per-task figures flat while domains multiply.
//
// Gate mode (--json=FILE [--gate-only]): replays a fixed sequence of
// allocation queries against one bootstrapped RM twice — path cache off,
// then on — and emits the search counters as machine-readable JSON. The
// counters are pure simulation quantities (no wall-clock), so two runs of
// the same binary produce byte-identical files; CI's perf-smoke job diffs
// the output against the committed BENCH_PR2.json baseline (see
// docs/BENCHMARKS.md).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <vector>

#include "core/allocation.hpp"
#include "exp_common.hpp"

using namespace p2prm;
using namespace p2prm::bench;

namespace {

struct GateCounters {
  std::uint64_t vertices_popped = 0;
  std::uint64_t sequences_enqueued = 0;
  std::uint64_t candidates = 0;  // PathEvaluations constructed ("allocations")
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t found = 0;  // sanity: must match between off/on runs
};

// Replays `queries` identical allocation queries against the RM's info
// base without composing (loads never change, so the graph epoch is
// stable — the repeated-query regime the cache targets).
GateCounters run_gate_queries(core::System& system, core::InfoBase& info,
                              const media::Catalog& catalog,
                              std::size_t queries, bool cache_on,
                              std::uint64_t seed) {
  core::SystemConfig cfg = system.config();
  cfg.enable_path_cache = cache_on;
  info.path_cache().clear();
  const auto allocator = core::make_allocator(core::AllocatorKind::PaperBfs);
  util::Rng rng(seed);

  const auto objects = info.all_objects();
  const auto members = info.domain().member_ids();
  GateCounters c;
  for (std::size_t i = 0; i < queries; ++i) {
    const util::ObjectId object = objects[i % objects.size()];
    const auto* locs = info.locations(object);
    // Walk two sensible conversion steps down from the source format so
    // most queries require a real multi-hop Figure 3 search.
    media::MediaFormat target = locs->front().object.format;
    for (int depth = 0; depth < 2; ++depth) {
      const auto steps = catalog.conversions_from(target);
      if (steps.empty()) break;
      target = steps[(i + static_cast<std::size_t>(depth)) % steps.size()]
                   .output;
    }
    core::AllocationRequest request;
    request.task = util::TaskId{100000 + i};
    request.q.object = object;
    request.q.acceptable_formats = {target};
    request.q.deadline = util::seconds(120);
    request.sink = members[i % members.size()];
    request.now = system.simulator().now();
    request.submitted_at = request.now;

    const auto result =
        allocator->allocate(info, system.network(), cfg, request, rng);
    c.vertices_popped += result.search.vertices_popped;
    c.sequences_enqueued += result.search.sequences_enqueued;
    c.candidates += result.candidates_considered;
    c.cache_hits += result.search.cache_hits;
    c.cache_misses += result.search.cache_misses;
    if (result.found) ++c.found;
  }
  return c;
}

void write_counters(std::ostream& out, const char* name,
                    const GateCounters& c, std::size_t queries) {
  const auto per_query = [&](std::uint64_t n) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g",
                  static_cast<double>(n) / static_cast<double>(queries));
    return std::string(buf);
  };
  const double probes = static_cast<double>(c.cache_hits + c.cache_misses);
  char rate[64];
  std::snprintf(rate, sizeof rate, "%.6g",
                probes > 0.0 ? static_cast<double>(c.cache_hits) / probes
                             : 0.0);
  out << "    \"" << name << "\": {\n"
      << "      \"vertices_popped\": " << c.vertices_popped << ",\n"
      << "      \"vertices_popped_per_query\": " << per_query(c.vertices_popped)
      << ",\n"
      << "      \"sequences_enqueued\": " << c.sequences_enqueued << ",\n"
      << "      \"allocations_per_query\": " << per_query(c.candidates)
      << ",\n"
      << "      \"cache_hits\": " << c.cache_hits << ",\n"
      << "      \"cache_misses\": " << c.cache_misses << ",\n"
      << "      \"cache_hit_rate\": " << rate << ",\n"
      << "      \"found\": " << c.found << "\n"
      << "    }";
}

// Peak resident set in MiB (Linux ru_maxrss is KiB).
double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Scale mode (--peers=N [--scale-json=FILE]): the million-peer ceiling run
// (docs/SCALING.md). A small live core bootstraps normally; the remaining
// population registers as lazy rows (flat registry only — no PeerNode, no
// endpoint, no join traffic). Waves of edge peers then materialize, carry a
// Poisson workload, and demote back to rows once idle. Reports the two
// numbers the PR-7 gate records: idle bytes/peer of the flat state and
// simulation events/sec through the active phase.
int run_scale_mode(std::size_t total_peers, std::size_t live_core,
                   std::size_t waves, std::size_t wave_peers, double run_s,
                   double rate_per_peer, std::uint64_t seed,
                   const std::string& json_path, const util::Args& args) {
  WorldConfig config;
  config.peers = live_core;
  config.system.seed = seed;
  config.system.max_domain_size = 32;
  // Million-peer mode runs fully hierarchical: aggregate-backed admission
  // plus aggregate-carrying summaries (O(domains) inter-RM state).
  config.system.enable_hierarchical_infobase = true;
  config.system.gossip_domain_aggregates = true;
  World world(config);

  print_header("E2-scale", "Single-process peer ceiling: flat rows + lazy "
               "materialization + hierarchical gossip (docs/SCALING.md)");
  std::cout << "peers=" << total_peers << " live_core=" << live_core
            << " waves=" << waves << "x" << wave_peers
            << " run/wave=" << run_s << "s seed=" << seed << "\n\n";

  const auto reg_start = std::chrono::steady_clock::now();
  world.bootstrap();
  core::System& system = world.system();
  system.reserve_peers(total_peers);

  // Edge population: spec drawn from the same heterogeneity model as the
  // core, carrying no inventory (consumers). Deliberately bypasses
  // per-peer object provisioning — an idle peer must cost rows, not heap.
  util::Rng lazy_rng(seed * 7919 + 101);
  std::vector<util::PeerId> lazy;
  const std::size_t lazy_count =
      total_peers > live_core ? total_peers - live_core : 0;
  lazy.reserve(lazy_count);
  for (std::size_t i = 0; i < lazy_count; ++i) {
    const auto spec = workload::draw_peer_spec(config.het, lazy_rng,
                                               system.simulator().now());
    lazy.push_back(system.add_lazy_peer(spec, {}));
  }
  const auto reg_stop = std::chrono::steady_clock::now();
  const double reg_s =
      std::chrono::duration<double>(reg_stop - reg_start).count();

  const std::size_t footprint = system.peer_registry().footprint_bytes();
  const double bytes_per_peer =
      static_cast<double>(footprint) /
      static_cast<double>(std::max<std::size_t>(1, system.peer_count()));

  // Active phase: waves of edge peers join, work, go idle, demote.
  const std::uint64_t events_before = system.simulator().events_executed();
  const auto active_start = std::chrono::steady_clock::now();
  std::size_t materialized_total = 0;
  std::size_t demoted_total = 0;
  std::size_t materialized_peak = system.peer_registry().materialized();
  for (std::size_t w = 0; w < waves && !lazy.empty(); ++w) {
    // Stride-sample the wave across the whole lazy range so row locality
    // does not flatter the run.
    const std::size_t stride =
        std::max<std::size_t>(1, lazy.size() / std::max<std::size_t>(
                                                   1, wave_peers));
    std::size_t touched = 0;
    for (std::size_t i = w; i < lazy.size() && touched < wave_peers;
         i += stride) {
      if (system.materialize_peer(lazy[i])) ++touched;
    }
    materialized_total += touched;
    world.run_poisson(
        rate_per_peer * static_cast<double>(live_core + wave_peers),
        util::from_seconds(run_s), util::seconds(2));
    materialized_peak =
        std::max(materialized_peak, system.peer_registry().materialized());
    demoted_total += system.demote_idle_peers(util::seconds(2));
  }
  const auto active_stop = std::chrono::steady_clock::now();
  const double active_s =
      std::chrono::duration<double>(active_stop - active_start).count();
  const std::uint64_t events =
      system.simulator().events_executed() - events_before;
  const double events_per_sec =
      active_s > 0.0 ? static_cast<double>(events) / active_s : 0.0;
  const double rss = peak_rss_mib();

  util::Table t({"metric", "value"});
  t.cell("total peers").cell(system.peer_count()).end_row();
  t.cell("registry bytes/peer").cell(bytes_per_peer, 1).end_row();
  t.cell("registration wall (s)").cell(reg_s, 1).end_row();
  t.cell("materialized (waves)").cell(materialized_total).end_row();
  t.cell("materialized peak").cell(materialized_peak).end_row();
  t.cell("demoted back to rows").cell(demoted_total).end_row();
  t.cell("sim events (active)").cell(events).end_row();
  t.cell("events/sec (wall)").cell(events_per_sec, 0).end_row();
  t.cell("peak RSS (MiB)").cell(rss, 0).end_row();
  emit(t, args);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    char b[64], e[64], r[64], g[64], a[64];
    std::snprintf(b, sizeof b, "%.4g", bytes_per_peer);
    std::snprintf(e, sizeof e, "%.4g", events_per_sec);
    std::snprintf(r, sizeof r, "%.4g", rss);
    std::snprintf(g, sizeof g, "%.4g", reg_s);
    std::snprintf(a, sizeof a, "%.4g", active_s);
    out << "{\n"
        << "  \"schema\": \"p2prm-bench-scale/1\",\n"
        << "  \"bench\": \"e2_scalability\",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"peers_total\": " << system.peer_count() << ",\n"
        << "  \"peers_live_core\": " << live_core << ",\n"
        << "  \"waves\": " << waves << ",\n"
        << "  \"wave_peers\": " << wave_peers << ",\n"
        << "  \"registry_footprint_bytes\": " << footprint << ",\n"
        << "  \"idle_bytes_per_peer\": " << b << ",\n"
        << "  \"registration_wall_s\": " << g << ",\n"
        << "  \"materialized_total\": " << materialized_total << ",\n"
        << "  \"materialized_peak\": " << materialized_peak << ",\n"
        << "  \"demoted\": " << demoted_total << ",\n"
        << "  \"events_executed\": " << events << ",\n"
        << "  \"active_wall_s\": " << a << ",\n"
        << "  \"events_per_sec\": " << e << ",\n"
        << "  \"peak_rss_mib\": " << r << ",\n"
        << "  \"notes\": \"idle_bytes_per_peer counts flat registry rows + "
           "id map only (PeerRegistry::footprint_bytes); nodes and stashes "
           "are excluded by design — see docs/SCALING.md budget table\"\n"
        << "}\n";
    std::cout << "\nscale run written to " << json_path << "\n";
  }
  std::cout << "\nExpectation: idle bytes/peer stays under the documented "
               "128 B budget and is independent of total population; "
               "events/sec reflects only the materialized working set.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  const double rate_per_peer = args.get_double("rate-per-peer", 0.03);
  const double measure_s = args.get_double("measure-s", 60);
  const std::uint64_t seed = args.get_int("seed", 42);
  const std::size_t max_peers = args.get_int("max-peers", 512);
  const std::string json_path = args.get("json", "");
  const bool gate_only = args.get_bool("gate-only", false);
  const std::size_t gate_queries = args.get_int("gate-queries", 4096);
  const std::size_t gate_peers = args.get_int("gate-peers", 64);
  const std::size_t scale_peers = args.get_int("peers", 0);

  if (scale_peers > 0) {
    return run_scale_mode(
        scale_peers, args.get_int("scale-live", 512),
        args.get_int("scale-waves", 4), args.get_int("scale-wave-peers", 2000),
        args.get_double("scale-run-s", 5.0), rate_per_peer, seed,
        args.get("scale-json", ""), args);
  }

  if (!json_path.empty()) {
    WorldConfig config;
    config.peers = gate_peers;
    config.system.seed = seed;
    config.system.max_domain_size = 32;
    World world(config);
    world.bootstrap();
    core::System& system = world.system();

    // Deterministic RM choice: the one seeing the most services (biggest
    // resource graph), ties broken by lowest peer id.
    core::InfoBase* info = nullptr;
    for (const auto id : system.resource_manager_ids()) {
      auto* rm = system.peer(id)->resource_manager();
      if (info == nullptr || rm->info().resource_graph().service_count() >
                                 info->resource_graph().service_count()) {
        info = &rm->info();
      }
    }
    if (info == nullptr || info->all_objects().empty()) {
      std::cerr << "gate: no RM with objects after bootstrap\n";
      return 1;
    }

    const auto nocache = run_gate_queries(system, *info, world.catalog(),
                                          gate_queries, false, seed);
    const auto cached = run_gate_queries(system, *info, world.catalog(),
                                         gate_queries, true, seed);
    char reduction[64];
    std::snprintf(reduction, sizeof reduction, "%.6g",
                  cached.vertices_popped > 0
                      ? static_cast<double>(nocache.vertices_popped) /
                            static_cast<double>(cached.vertices_popped)
                      : 0.0);

    std::ofstream out(json_path);
    out << "{\n"
        << "  \"schema\": \"p2prm-bench-gate/1\",\n"
        << "  \"bench\": \"e2_scalability\",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"gate\": {\n"
        << "    \"peers\": " << gate_peers << ",\n"
        << "    \"queries\": " << gate_queries << ",\n";
    write_counters(out, "nocache", nocache, gate_queries);
    out << ",\n";
    write_counters(out, "cache", cached, gate_queries);
    out << ",\n    \"vertices_popped_reduction\": " << reduction << "\n"
        << "  }\n"
        << "}\n";
    std::cout << "gate: " << gate_queries << " queries over " << gate_peers
              << " peers -> vertices_popped " << nocache.vertices_popped
              << " (cache off) vs " << cached.vertices_popped
              << " (cache on), reduction " << reduction << "x, written to "
              << json_path << "\n";
    if (nocache.found != cached.found ||
        nocache.candidates != cached.candidates) {
      std::cerr << "gate: cache on/off result divergence (found "
                << nocache.found << " vs " << cached.found << ", candidates "
                << nocache.candidates << " vs " << cached.candidates << ")\n";
      return 1;
    }
    if (gate_only) return 0;
  }

  print_header("E2", "Claim (§1, §6): the architecture scales well with "
               "respect to the number of peers");
  std::cout << "arrival rate=" << rate_per_peer << "/s per peer, measure="
            << measure_s << "s, seed=" << seed << "\n\n";

  util::Table t({"peers", "domains", "submitted", "goodput", "miss ratio",
                 "cum fairness", "ctrl KB/task", "RM msgs/s/domain",
                 "wall (ms)"});

  for (std::size_t peers = 16; peers <= max_peers; peers *= 2) {
    WorldConfig config;
    config.peers = peers;
    config.system.seed = seed;
    config.system.max_domain_size = 32;
    World world(config);
    const auto wall_start = std::chrono::steady_clock::now();
    world.bootstrap();

    metrics::LoadProbe probe(world.system(), util::seconds(1));
    probe.start();
    world.system().network().reset_stats();
    const auto submitted =
        world.run_poisson(rate_per_peer * static_cast<double>(peers),
                          util::from_seconds(measure_s), util::seconds(60));
    probe.stop();
    const auto wall_stop = std::chrono::steady_clock::now();

    const auto& ledger = world.system().ledger();
    const auto domains = world.system().domains();
    const auto split =
        metrics::split_traffic(world.system().network().stats());
    // Messages an RM handles per second: control messages divided across
    // domains and the measured window.
    const double rm_msgs =
        static_cast<double>(split.control_messages) /
        std::max<std::size_t>(domains.size(), 1) / (measure_s + 60.0);

    t.cell(peers)
        .cell(domains.size())
        .cell(submitted)
        .cell(ledger.goodput(), 4)
        .cell(ledger.miss_ratio(), 4)
        .cell(probe.cumulative_fairness(), 4)
        .cell(control_bytes_per_task(world.system(), submitted) / 1024.0, 2)
        .cell(rm_msgs, 1)
        .cell(std::chrono::duration<double, std::milli>(wall_stop - wall_start)
                  .count(),
              0)
        .end_row();
  }
  emit(t, args);
  std::cout << "\nExpectation: goodput, fairness and ctrl KB/task stay ~flat "
               "as peers grow;\ndomains scale out (one RM per "
               "max_domain_size peers) and per-RM load stays bounded.\n";
  return 0;
}
