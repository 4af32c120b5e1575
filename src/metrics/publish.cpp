#include "metrics/publish.hpp"

#include <algorithm>

namespace p2prm::metrics {

void publish_system(const core::System& system,
                    obs::MetricsRegistry& registry) {
  const core::TaskLedger& ledger = system.ledger();
  registry.counter("tasks.submitted").set(ledger.submitted());
  registry.counter("tasks.admitted").set(ledger.admitted());
  registry.counter("tasks.completed").set(ledger.completed());
  registry.counter("tasks.completed_on_time").set(ledger.completed_on_time());
  registry.counter("tasks.missed_deadline").set(ledger.missed());
  registry.counter("tasks.rejected").set(ledger.rejected());
  registry.counter("tasks.failed").set(ledger.failed());
  registry.counter("tasks.orphaned").set(ledger.orphaned());
  registry.gauge("tasks.pending").set(static_cast<double>(ledger.pending()));
  registry.gauge("tasks.on_time_ratio").set(ledger.on_time_ratio());
  registry.gauge("tasks.miss_ratio").set(ledger.miss_ratio());
  registry.gauge("tasks.goodput").set(ledger.goodput());
  auto& response = registry.histogram("tasks.response_time_s",
                                      obs::default_latency_bounds_s());
  for (double s : ledger.response_times_s().values()) response.observe(s);

  registry.gauge("system.peers_alive")
      .set(static_cast<double>(system.alive_count()));
  registry.gauge("system.domains")
      .set(static_cast<double>(system.domains().size()));
  registry.gauge("system.now_s")
      .set(util::to_seconds(system.simulator().now()));

  system.transport().publish(registry);
  system.simulator().queue().publish(registry);
  system.peer_registry().publish(registry);
}

void publish_all(const core::System& system, obs::MetricsRegistry& registry) {
  publish_system(system, registry);
  // Materialized ids only: lazy rows have no node and therefore no series,
  // so skipping them is output-identical and O(materialized) not O(peers).
  for (util::PeerId id : system.materialized_peer_ids()) {
    const core::PeerNode* node = system.peer(id);
    if (node != nullptr && node->alive()) node->publish(registry);
  }
}

void publish_streamed(const core::System& system, std::size_t chunk_peers,
                      const SampleSink& sink) {
  if (chunk_peers == 0) chunk_peers = 1;
  obs::MetricsRegistry scratch;
  publish_system(system, scratch);
  scratch.for_each_sample(sink);

  const auto ids = system.materialized_peer_ids();
  for (std::size_t begin = 0; begin < ids.size(); begin += chunk_peers) {
    scratch.clear();
    const std::size_t end = std::min(begin + chunk_peers, ids.size());
    for (std::size_t i = begin; i < end; ++i) {
      const core::PeerNode* node = system.peer(ids[i]);
      if (node != nullptr && node->alive()) node->publish(scratch);
    }
    scratch.for_each_sample(sink);
  }
}

}  // namespace p2prm::metrics
