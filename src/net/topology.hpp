// Physical placement and latency model.
//
// Peers are placed on a 2D plane; propagation latency grows linearly with
// euclidean distance plus a per-path base. Peers that are physically close
// therefore see low mutual latency — this is the "topological proximity"
// that the paper's geographical domains are built from (§2, §4.1).
#pragma once

#include <cstdint>
#include <vector>

#include "util/flat_map.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace p2prm::net {

struct Coordinates {
  double x = 0.0;
  double y = 0.0;
};

[[nodiscard]] double distance(Coordinates a, Coordinates b);

struct TopologyConfig {
  double world_size = 1000.0;       // side of the square world (abstract km)
  double base_latency_s = 0.001;    // per-path floor (1 ms)
  double latency_per_unit_s = 2e-6; // 2 us per km -> ~2 ms across the world
  double jitter_fraction = 0.0;     // +- fraction of the deterministic latency
  int cluster_count = 0;            // 0: uniform placement; >0: gaussian clusters
  double cluster_stddev = 40.0;     // spread of each cluster
};

// Owns peer coordinates and answers latency queries. Placement is either
// uniform or clustered (clusters model metropolitan areas, giving the
// domain-formation logic real proximity structure to exploit).
class Topology {
 public:
  explicit Topology(TopologyConfig config = {});

  // Draws placement coordinates without registering the peer. Lazy peers
  // (docs/SCALING.md) keep their draw in the flat registry row and only
  // enter the topology when they materialize, so the coordinate table
  // scales with the *materialized* population.
  Coordinates draw(util::Rng& rng);
  // Places a peer (clustered placement draws the cluster first).
  Coordinates place(util::PeerId peer, util::Rng& rng);
  // Places at explicit coordinates (tests, reproducing figures).
  void place_at(util::PeerId peer, Coordinates c);
  void remove(util::PeerId peer);

  [[nodiscard]] bool contains(util::PeerId peer) const;
  [[nodiscard]] Coordinates coordinates(util::PeerId peer) const;

  // One-way propagation latency. Deterministic unless jitter is configured,
  // in which case `rng` perturbs each query independently.
  [[nodiscard]] util::SimDuration latency(util::PeerId a, util::PeerId b) const;
  [[nodiscard]] util::SimDuration latency_jittered(util::PeerId a,
                                                   util::PeerId b,
                                                   util::Rng& rng) const;

  [[nodiscard]] const TopologyConfig& config() const { return config_; }
  [[nodiscard]] std::size_t size() const { return coords_.size(); }

 private:
  void ensure_clusters(util::Rng& rng);

  TopologyConfig config_;
  // Open-addressing map: latency() sits on the message hot path (two
  // lookups per send). Never iterated, so slot order is unobservable.
  util::FlatMap<util::PeerId, Coordinates> coords_;
  std::vector<Coordinates> cluster_centers_;
};

}  // namespace p2prm::net
