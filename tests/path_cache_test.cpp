// Property test for the epoch-invalidated path cache: under randomized
// interleavings of load updates, edge insertions/removals and queries, a
// cached answer must be indistinguishable from a fresh uncached search —
// same candidate paths, same order, same edges — after every invalidation
// point. Runs seeds 1..10.
#include <gtest/gtest.h>

#include <vector>

#include "graph/path_cache.hpp"
#include "graph/path_search.hpp"
#include "media/catalog.hpp"
#include "util/rng.hpp"

namespace p2prm::graph {
namespace {

std::vector<std::vector<util::ServiceId>> id_sequences(
    const std::vector<EdgePath>& paths) {
  std::vector<std::vector<util::ServiceId>> out;
  out.reserve(paths.size());
  for (const auto& path : paths) {
    std::vector<util::ServiceId> seq;
    seq.reserve(path.size());
    for (const ServiceEdge* e : path) seq.push_back(e->id);
    out.push_back(std::move(seq));
  }
  return out;
}

TEST(PathCacheProperty, MatchesFreshSearchUnderRandomInterleavings) {
  const media::Catalog catalog = media::ladder_catalog();
  const auto& conversions = catalog.conversions();
  const auto& formats = catalog.formats();

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    ResourceGraph gr;
    PathCache cache;
    std::vector<util::ServiceId> live;
    std::uint64_t next_id = 0;

    // Seed the graph so early queries have something to find.
    for (int i = 0; i < 24; ++i) {
      const util::ServiceId id{next_id++};
      gr.add_service(id, util::PeerId{rng.below(8)},
                     conversions[rng.below(conversions.size())]);
      live.push_back(id);
    }

    std::size_t queries = 0;
    for (int step = 0; step < 300; ++step) {
      const std::uint64_t roll = rng.below(100);
      if (roll < 40) {
        // Query a random (start, goal) pair through the cache and compare
        // with an uncached search — order-sensitive, edge for edge.
        const auto start =
            gr.find_state(formats[rng.below(formats.size())]);
        const auto goal = gr.find_state(formats[rng.below(formats.size())]);
        if (!start || !goal) continue;
        ++queries;
        SearchStats cached_stats;
        const auto cached = cache.id_paths(gr, *start, *goal, &cached_stats);
        const auto fresh = id_sequences(graph::bfs_paths(gr, *start, *goal));
        ASSERT_EQ(cached, fresh)
            << "cached " << cached.size() << " paths vs fresh "
            << fresh.size() << " at step " << step;
        EXPECT_EQ(cached_stats.cache_hits + cached_stats.cache_misses, 1u);
      } else if (roll < 70 && !live.empty()) {
        // Load update: bumps the epoch only when the value changes.
        gr.set_service_load(live[rng.below(live.size())],
                            rng.uniform(0.0, 10.0));
      } else if (roll < 90) {
        const util::ServiceId id{next_id++};
        gr.add_service(id, util::PeerId{rng.below(8)},
                       conversions[rng.below(conversions.size())]);
        live.push_back(id);
      } else if (!live.empty()) {
        const std::size_t victim = rng.below(live.size());
        gr.remove_service(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }

    // Every query was either a hit or a miss, and the mutation mix must
    // have produced both invalidations and (within stable windows) hits.
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, queries);
    EXPECT_GT(cache.stats().invalidations, 0u);
    EXPECT_GT(queries, 50u);
  }
}

TEST(PathCache, HitServesWithoutTraversalAndLoadUpdateInvalidates) {
  const media::Catalog catalog = media::ladder_catalog();
  ResourceGraph gr;
  for (std::uint64_t e = 0; e < 16; ++e) {
    gr.add_service(util::ServiceId{e}, util::PeerId{e % 4},
                   catalog.conversions()[e % catalog.conversions().size()]);
  }
  // Endpoints of the first conversion are guaranteed to exist as states
  // (edge 0 uses conversions()[0]); a one-hop path always connects them.
  const auto start = gr.find_state(catalog.conversions().front().input);
  const auto goal = gr.find_state(catalog.conversions().front().output);
  ASSERT_TRUE(start && goal);

  PathCache cache;
  SearchStats miss_stats;
  const auto first = cache.id_paths(gr, *start, *goal, &miss_stats);
  EXPECT_EQ(miss_stats.cache_misses, 1u);

  SearchStats hit_stats;
  const auto second = cache.id_paths(gr, *start, *goal, &hit_stats);
  EXPECT_EQ(hit_stats.cache_hits, 1u);
  // The whole point: a hit answers without popping a single vertex.
  EXPECT_EQ(hit_stats.vertices_popped, 0u);
  EXPECT_EQ(first, second);

  // A no-op load write must NOT invalidate; a real change must.
  const auto any = gr.all_services().front()->id;
  gr.set_service_load(any, gr.service(any).load);
  SearchStats still_hit;
  (void)cache.id_paths(gr, *start, *goal, &still_hit);
  EXPECT_EQ(still_hit.cache_hits, 1u);

  gr.set_service_load(any, gr.service(any).load + 1.0);
  SearchStats refilled;
  const auto after = cache.id_paths(gr, *start, *goal, &refilled);
  EXPECT_EQ(refilled.cache_misses, 1u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(after, id_sequences(graph::bfs_paths(gr, *start, *goal)));
}

}  // namespace
}  // namespace p2prm::graph
