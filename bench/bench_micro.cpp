// M1 — microbenchmarks of the hot paths (google-benchmark).
//
// Run with --benchmark_format=json for machine-readable output; the
// deterministic work counters (vertices popped, cache hit rate, heap-
// spilled callables, compactions) ride along as benchmark counters, so
// the JSON doubles as a structural-regression record independent of
// wall-clock noise (see docs/BENCHMARKS.md).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "core/allocation.hpp"
#include "core/peer_registry.hpp"
#include "core/system.hpp"
#include "fairness/fairness.hpp"
#include "graph/path_cache.hpp"
#include "graph/path_search.hpp"
#include "media/catalog.hpp"
#include "net/network.hpp"
#include "sched/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "util/arena.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

// Every heap allocation in this binary goes through this replacement, so a
// benchmark can report allocations per operation (array forms forward here
// by default). Kept out of line: inlined into a call site, GCC would pair
// the caller's `new` with the `free` below and warn of a mismatch.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t bytes) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace p2prm;

void BM_JainIndex(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<double> loads(static_cast<std::size_t>(state.range(0)));
  for (auto& l : loads) l = rng.uniform(0.0, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fairness::jain_index(loads));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_JainIndex)->Range(8, 4096)->Complexity(benchmark::oN);

void BM_IncrementalFairnessHypothetical(benchmark::State& state) {
  util::Rng rng(2);
  fairness::IncrementalFairness inc;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(state.range(0));
       ++i) {
    inc.set(util::PeerId{i}, rng.uniform(0.0, 100.0));
  }
  const std::vector<std::pair<util::PeerId, double>> deltas{
      {util::PeerId{1}, 5.0}, {util::PeerId{3}, 2.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(inc.index_with(deltas));
  }
}
BENCHMARK(BM_IncrementalFairnessHypothetical)->Range(8, 4096);

void BM_BloomInsert(benchmark::State& state) {
  bloom::BloomFilter bf({65536, 5});
  util::Rng rng(3);
  for (auto _ : state) {
    bf.insert(rng.next());
  }
}
BENCHMARK(BM_BloomInsert);

void BM_BloomQuery(benchmark::State& state) {
  bloom::BloomFilter bf({65536, 5});
  util::Rng rng(4);
  for (int i = 0; i < 5000; ++i) bf.insert(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.possibly_contains(rng.next()));
  }
}
BENCHMARK(BM_BloomQuery);

void BM_EventQueuePushPop(benchmark::State& state) {
  util::Rng rng(5);
  const std::uint64_t heap_before = sim::EventFn::heap_constructions();
  for (auto _ : state) {
    sim::EventQueue q;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      // Capture shape of the hot schedule sites: a pointer plus ids.
      void* ctx = &q;
      const std::uint64_t a = rng.next();
      const std::uint64_t b = i;
      q.push(static_cast<util::SimTime>(rng.below(1'000'000)),
             [ctx, a, b] { benchmark::DoNotOptimize(ctx == nullptr ? a : b); });
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().when);
  }
  // 0 when every callable fit EventFn's inline buffer.
  state.counters["callable_heap_allocs"] = static_cast<double>(
      sim::EventFn::heap_constructions() - heap_before);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EventQueuePushPop)->Range(64, 16384)->Complexity(benchmark::oNLogN);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // Timer-heavy regime: most scheduled events are cancelled before firing
  // (retries that succeed, re-armed timeouts). Exercises tombstone
  // compaction; the counters record how much garbage the compactor drops.
  util::Rng rng(51);
  double compactions = 0.0;
  double dropped = 0.0;
  for (auto _ : state) {
    sim::EventQueue q;
    const int n = static_cast<int>(state.range(0));
    std::vector<sim::EventId> ids;
    ids.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      ids.push_back(
          q.push(static_cast<util::SimTime>(rng.below(1'000'000)), [] {}));
    }
    for (int i = 0; i < n; ++i) {
      if (i % 8 != 0) q.cancel(ids[static_cast<std::size_t>(i)]);
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().when);
    compactions += static_cast<double>(q.stats().compactions);
    dropped += static_cast<double>(q.stats().tombstones_compacted);
  }
  state.counters["compactions"] =
      benchmark::Counter(compactions, benchmark::Counter::kAvgIterations);
  state.counters["tombstones_dropped"] =
      benchmark::Counter(dropped, benchmark::Counter::kAvgIterations);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EventQueueCancelHeavy)
    ->Range(256, 16384)
    ->Complexity(benchmark::oNLogN);

void BM_LlsSelect(benchmark::State& state) {
  util::Rng rng(6);
  std::vector<sched::Job> ready(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < ready.size(); ++i) {
    ready[i].id = util::JobId{i};
    ready[i].total_ops = ready[i].remaining_ops = rng.uniform(1e5, 1e7);
    ready[i].absolute_deadline = util::from_seconds(rng.uniform(1.0, 100.0));
  }
  const auto policy = sched::make_policy(sched::Policy::LeastLaxity);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->select(ready, 0, 1e6));
  }
}
BENCHMARK(BM_LlsSelect)->Range(2, 256);

void BM_TranscodeCostModel(benchmark::State& state) {
  const media::TranscoderType type{
      {media::Codec::MPEG2, media::kRes800x600, 512},
      {media::Codec::MPEG4, media::kRes640x480, 128}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::transcode_ops_per_media_second(type));
  }
}
BENCHMARK(BM_TranscodeCostModel);

void BM_Figure3Bfs(benchmark::State& state) {
  // Paper BFS over a randomly provisioned ladder graph.
  util::Rng rng(7);
  const media::Catalog catalog = media::ladder_catalog();
  graph::ResourceGraph gr;
  const auto edges = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t e = 0; e < edges; ++e) {
    gr.add_service(util::ServiceId{e}, util::PeerId{rng.below(64)},
                   catalog.conversions()[rng.below(catalog.conversions().size())]);
  }
  const auto start = gr.find_state(
      media::MediaFormat{media::Codec::MPEG2, media::kRes800x600, 512});
  const auto goal = gr.find_state(
      media::MediaFormat{media::Codec::MPEG4, media::kRes640x480, 128});
  if (!start || !goal) {
    state.SkipWithError("graph lacks endpoints");
    return;
  }
  graph::SearchStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::bfs_paths(gr, *start, *goal, {}, &stats));
  }
  // Per-search work, independent of wall clock (last iteration's stats —
  // the graph is fixed, so every iteration pops the same count).
  state.counters["vertices_popped"] = static_cast<double>(stats.vertices_popped);
  state.counters["candidates"] = static_cast<double>(stats.candidates_found);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Figure3Bfs)->Range(32, 2048)->Complexity(benchmark::oN);

void BM_PathCacheRepeatedQuery(benchmark::State& state) {
  // The allocator's steady-state regime between load reports: the same
  // (start, goal) enumeration over an unchanged graph, served memoized.
  util::Rng rng(7);
  const media::Catalog catalog = media::ladder_catalog();
  graph::ResourceGraph gr;
  const auto edges = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t e = 0; e < edges; ++e) {
    gr.add_service(util::ServiceId{e}, util::PeerId{rng.below(64)},
                   catalog.conversions()[rng.below(catalog.conversions().size())]);
  }
  const auto start = gr.find_state(
      media::MediaFormat{media::Codec::MPEG2, media::kRes800x600, 512});
  const auto goal = gr.find_state(
      media::MediaFormat{media::Codec::MPEG4, media::kRes640x480, 128});
  if (!start || !goal) {
    state.SkipWithError("graph lacks endpoints");
    return;
  }
  graph::PathCache cache;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.id_paths(gr, *start, *goal).size());
  }
  const double probes =
      static_cast<double>(cache.stats().hits + cache.stats().misses);
  state.counters["cache_hit_rate"] =
      probes > 0.0 ? static_cast<double>(cache.stats().hits) / probes : 0.0;
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PathCacheRepeatedQuery)->Range(32, 2048)->Complexity(benchmark::oN);

void BM_AllocateStreamChain(benchmark::State& state) {
  // One streaming chain placement (paper-bfs) over a ladder-catalog pool
  // shaped like the stream workload's: 6 services per peer, round-robin
  // over the catalog, so every conversion has many hosts and a query scores
  // every Figure 3 candidate. The path cache is warm after the first query,
  // as it is between a stream's load reports.
  util::Rng rng(11);
  const media::Catalog catalog = media::ladder_catalog();
  const auto& conversions = catalog.conversions();
  sim::Simulator sim(1);
  net::Topology topo;
  net::Network network(sim, topo);
  const core::SystemConfig config{};
  core::InfoBase info(util::DomainId{0}, util::PeerId{0});
  const auto peers = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t service_id = 1;
  for (std::uint64_t p = 0; p < peers; ++p) {
    overlay::PeerSpec spec;
    spec.id = util::PeerId{p};
    spec.capacity_ops_per_s = rng.uniform(30e6, 90e6);
    topo.place_at(spec.id, {rng.uniform(0, 1000), rng.uniform(0, 1000)});
    info.add_member(spec, 0);
    core::PeerAnnounce announce;
    announce.spec = spec;
    for (std::uint64_t s = 0; s < 6; ++s) {
      announce.services.push_back(core::ServiceOffering{
          util::ServiceId{service_id++},
          conversions[(p * 6 + s) % conversions.size()]});
    }
    info.add_inventory(announce);
  }
  core::PeerAnnounce source;
  source.spec.id = util::PeerId{0};
  source.objects = {media::make_object(
      util::ObjectId{1},
      media::MediaFormat{media::Codec::MPEG2, media::kRes800x600, 512}, 0.5,
      rng)};
  info.add_inventory(source);
  core::AllocationRequest request;
  request.task = util::TaskId{1};
  request.q.object = util::ObjectId{1};
  request.q.acceptable_formats = {
      media::MediaFormat{media::Codec::MPEG4, media::kRes640x480, 128}};
  request.q.deadline = util::seconds(3);
  request.sink = util::PeerId{1000000};
  topo.place_at(request.sink, {500, 500});
  const auto allocator = core::make_allocator(core::AllocatorKind::PaperBfs);
  util::Rng alloc_rng(12);
  std::size_t candidates =
      allocator->allocate(info, network, config, request, alloc_rng)
          .candidates_considered;
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const core::AllocationResult result =
        allocator->allocate(info, network, config, request, alloc_rng);
    candidates = result.candidates_considered;
    benchmark::DoNotOptimize(result.fairness_after);
  }
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["candidates"] = static_cast<double>(candidates);
  state.counters["heap_allocs"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_AllocateStreamChain)->Range(64, 1024);

// The next four benchmarks justify the PR 6 data-layout pass head to
// head: open-addressing FlatMap vs std::unordered_map on the InfoBase
// lookup pattern, and the size-classed event Pool vs plain heap
// allocation on the EventQueue churn pattern. Both pairs use the same
// seeds and access sequence so only the container differs; the
// deterministic counters (mean probe length, pool reuse rate) feed the
// regression gate while the wall-clock columns stay informational.

template <typename Map>
Map build_lookup_map(std::size_t n) {
  util::Rng rng(0xF1A7);
  Map m;
  for (std::size_t i = 0; i < n; ++i) {
    // Key drawn before value (operator[]= would evaluate the RHS first).
    const util::PeerId key{rng.next()};
    m[key] = rng.next();
  }
  return m;
}

std::vector<util::PeerId> lookup_probe_keys(std::size_t n) {
  // Same generator state as build_lookup_map: half the probes hit, half
  // miss — the InfoBase measured_exec_ access mix.
  util::Rng rng(0xF1A7);
  std::vector<util::PeerId> keys;
  keys.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.emplace_back(rng.next());
    rng.next();
  }
  util::Rng miss(0xD00D);
  for (std::size_t i = 0; i < n; ++i) keys.emplace_back(miss.next());
  return keys;
}

void BM_FlatMapLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m =
      build_lookup_map<util::FlatMap<util::PeerId, std::uint64_t>>(n);
  const auto keys = lookup_probe_keys(n);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const auto& k : keys) {
      if (const auto* v = m.find(k)) sum += *v;
    }
    benchmark::DoNotOptimize(sum);
  }
  double probes = 0.0;
  std::size_t hits = 0;
  for (const auto& k : keys) {
    if (m.contains(k)) {
      probes += static_cast<double>(m.probe_length(k));
      ++hits;
    }
  }
  state.counters["mean_probe_length"] =
      hits > 0 ? probes / static_cast<double>(hits) : 0.0;
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FlatMapLookup)->Range(256, 16384)->Complexity(benchmark::o1);

void BM_UnorderedMapLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m =
      build_lookup_map<std::unordered_map<util::PeerId, std::uint64_t>>(n);
  const auto keys = lookup_probe_keys(n);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const auto& k : keys) {
      if (const auto it = m.find(k); it != m.end()) sum += it->second;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UnorderedMapLookup)->Range(256, 16384)->Complexity(benchmark::o1);

void BM_ArenaAlloc(benchmark::State& state) {
  // The EventQueue churn pattern: allocate a wave of spilled callables,
  // free them, repeat — after the first wave everything comes from the
  // thread-local freelist.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto before = util::Pool::stats();
  std::vector<void*> live(n);
  for (auto _ : state) {
    for (auto& p : live) p = util::Pool::allocate(48);
    for (auto& p : live) util::Pool::deallocate(p, 48);
  }
  const auto after = util::Pool::stats();
  const double fresh = static_cast<double>(after.fresh - before.fresh);
  const double reused = static_cast<double>(after.reused - before.reused);
  const double total = fresh + reused;
  state.counters["pool_reuse_rate"] = total > 0.0 ? reused / total : 0.0;
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ArenaAlloc)->Range(256, 4096)->Complexity(benchmark::oN);

void BM_HeapAlloc(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<void*> live(n);
  for (auto _ : state) {
    for (auto& p : live) p = ::operator new(48);
    for (auto& p : live) ::operator delete(p);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HeapAlloc)->Range(256, 4096)->Complexity(benchmark::oN);

void BM_TypeKey(benchmark::State& state) {
  const media::TranscoderType type{
      {media::Codec::MPEG2, media::kRes800x600, 512},
      {media::Codec::MPEG4, media::kRes640x480, 128}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(type.type_key());
  }
}
BENCHMARK(BM_TypeKey);

void BM_RegistryCensus(benchmark::State& state) {
  // A fixed 512-node working set spread over a growing population of lazy
  // rows: the census walks node slots, so its cost must not grow with rows.
  constexpr std::size_t kNodes = 512;
  const auto rows = static_cast<std::size_t>(state.range(0));
  core::System system{core::SystemConfig{}};
  core::PeerRegistry reg;
  reg.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    overlay::PeerSpec spec;
    spec.id = util::PeerId{i + 1};
    reg.add_row(spec, {}, core::PeerState::Lazy);
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto row = static_cast<std::uint32_t>(i * (rows / kNodes));
    reg.attach_node(row, std::make_unique<core::PeerNode>(
                             system, reg.spec(row), core::PeerInventory{}));
  }
  for (auto _ : state) {
    std::size_t dead = 0;
    reg.for_each_node(
        [&](std::uint32_t, const core::PeerNode& n) { dead += !n.alive(); });
    benchmark::DoNotOptimize(dead);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RegistryCensus)
    ->RangeMultiplier(8)
    ->Range(1 << 10, 1 << 19)
    ->Complexity(benchmark::o1);

}  // namespace
