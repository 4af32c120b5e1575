// PeerRegistry censuses walk node slots, not rows (docs/SCALING.md): every
// answer they give must equal a plain scan over every row, whatever order
// attach_node and detach_node left the slots in.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "core/peer_node.hpp"
#include "core/peer_registry.hpp"
#include "core/system.hpp"
#include "media/catalog.hpp"
#include "obs/metrics_registry.hpp"
#include "workload/heterogeneity.hpp"

namespace p2prm {
namespace {

using namespace core;

constexpr PeerState kStates[] = {PeerState::Lazy, PeerState::Live,
                                 PeerState::Left, PeerState::Crashed};

// Reference answers from a scan over every row.
std::vector<std::pair<std::uint32_t, const PeerNode*>> scan_nodes(
    const PeerRegistry& reg) {
  std::vector<std::pair<std::uint32_t, const PeerNode*>> out;
  for (std::uint32_t row = 0; row < reg.size(); ++row) {
    if (const PeerNode* n = reg.node(row)) out.emplace_back(row, n);
  }
  return out;
}

std::size_t scan_count(const PeerRegistry& reg, PeerState s) {
  std::size_t n = 0;
  for (std::uint32_t row = 0; row < reg.size(); ++row) n += reg.state(row) == s;
  return n;
}

void expect_census_matches_scan(const PeerRegistry& reg) {
  std::vector<std::pair<std::uint32_t, const PeerNode*>> walked;
  reg.for_each_node([&](std::uint32_t row, const PeerNode& node) {
    walked.emplace_back(row, &node);
  });
  std::sort(walked.begin(), walked.end());
  EXPECT_EQ(walked, scan_nodes(reg));
  EXPECT_EQ(reg.materialized(), walked.size());
  for (const PeerState s : kStates) {
    EXPECT_EQ(reg.count(s), scan_count(reg, s)) << peer_state_name(s);
  }
}

overlay::PeerSpec spec_for(std::uint64_t id) {
  overlay::PeerSpec spec;
  spec.id = util::PeerId{id};
  return spec;
}

TEST(PeerRegistryCensus, SlotWalkMatchesRowScanUnderRandomLifecycle) {
  // Nodes are built against a System but never started: the registry under
  // test is standalone, so the System's own registry stays empty.
  System system{SystemConfig{}};
  PeerRegistry reg;
  constexpr std::uint32_t kRows = 300;
  for (std::uint32_t i = 0; i < kRows; ++i) {
    reg.add_row(spec_for(i + 1), {}, PeerState::Lazy);
  }
  expect_census_matches_scan(reg);

  // Each row's node pointer must survive every other row's attach/detach.
  std::map<std::uint32_t, const PeerNode*> attached;
  util::Rng rng(2024);
  for (int step = 0; step < 4000; ++step) {
    const auto row = static_cast<std::uint32_t>(rng.below(kRows));
    switch (rng.below(3)) {
      case 0:
        if (reg.node(row) == nullptr) {
          attached[row] = reg.attach_node(
              row, std::make_unique<PeerNode>(system, reg.spec(row),
                                              PeerInventory{}));
          reg.set_state(row, PeerState::Live);
        }
        break;
      case 1:
        if (auto node = reg.detach_node(row)) {
          EXPECT_EQ(node.get(), attached[row]);
          attached.erase(row);
          reg.set_state(row, PeerState::Lazy);
        }
        break;
      default:
        if (reg.node(row) != nullptr) {
          reg.set_state(row, rng.below(2) == 0 ? PeerState::Left
                                               : PeerState::Crashed);
        }
        break;
    }
    if (step % 97 == 0) expect_census_matches_scan(reg);
  }
  expect_census_matches_scan(reg);
  for (const auto& [row, node] : attached) EXPECT_EQ(reg.node(row), node);
}

TEST(PeerRegistryCensus, PublishedGaugesMatchRowScan) {
  System system{SystemConfig{}};
  PeerRegistry reg;
  for (std::uint32_t i = 0; i < 40; ++i) {
    reg.add_row(spec_for(i + 1), {}, kStates[i % 4]);
  }
  for (std::uint32_t row = 1; row < 40; row += 4) {
    reg.attach_node(row, std::make_unique<PeerNode>(system, reg.spec(row),
                                                    PeerInventory{}));
  }
  reg.set_state(0, PeerState::Live);  // one Lazy -> Live transition
  obs::MetricsRegistry metrics;
  reg.publish(metrics);
  EXPECT_EQ(metrics.gauge("core.peers.total").value(), 40.0);
  EXPECT_EQ(metrics.gauge("core.peers.materialized").value(), 10.0);
  EXPECT_EQ(metrics.gauge("core.peers.lazy").value(),
            static_cast<double>(scan_count(reg, PeerState::Lazy)));
  EXPECT_EQ(metrics.gauge("core.peers.lazy").value(), 9.0);
  EXPECT_EQ(metrics.gauge("core.peers.left").value(), 10.0);
  EXPECT_EQ(metrics.gauge("core.peers.crashed").value(), 10.0);
}

// System-level censuses over a world of live, lazy, demoted, crashed,
// restarted and departed peers, against a scan over every registry row.
TEST(PeerRegistryCensus, SystemCensusesMatchRowScanThroughLifecycle) {
  media::Catalog catalog = media::ladder_catalog();
  SystemConfig config;
  config.seed = 11;
  config.max_domain_size = 8;
  System system(config);
  util::Rng rng(5);
  workload::ObjectPopulation population(catalog, {}, system, rng);
  workload::PeerFactory factory =
      workload::make_peer_factory(catalog, population, {}, {}, system, rng);
  workload::bootstrap_network(system, factory, 24);

  std::vector<util::PeerId> lazy;
  util::Rng spec_rng(17);
  for (int i = 0; i < 2000; ++i) {
    lazy.push_back(system.add_lazy_peer(
        workload::draw_peer_spec({}, spec_rng, system.simulator().now()), {}));
  }
  for (std::size_t i = 0; i < lazy.size(); i += 50) {
    ASSERT_TRUE(system.materialize_peer(lazy[i]));
  }
  system.run_for(util::seconds(5));
  const auto alive = system.alive_peer_ids();
  system.crash_peer(alive[3]);
  system.crash_peer(alive[9]);
  system.leave_peer(alive[12]);
  EXPECT_GT(system.demote_idle_peers(util::seconds(1)), 0u);
  ASSERT_TRUE(system.restart_peer(alive[3]));
  system.run_for(util::seconds(5));

  const PeerRegistry& reg = system.peer_registry();
  expect_census_matches_scan(reg);
  std::vector<util::PeerId> materialized, live, rms;
  for (std::uint32_t row = 0; row < reg.size(); ++row) {
    const PeerNode* node = reg.node(row);
    if (node == nullptr) continue;
    materialized.push_back(reg.id(row));
    if (!node->alive()) continue;
    live.push_back(reg.id(row));
    if (node->resource_manager() != nullptr) rms.push_back(reg.id(row));
  }
  std::sort(materialized.begin(), materialized.end());
  std::sort(live.begin(), live.end());
  std::sort(rms.begin(), rms.end());
  EXPECT_EQ(system.materialized_peer_ids(), materialized);
  EXPECT_EQ(system.alive_peer_ids(), live);
  EXPECT_EQ(system.alive_count(), live.size());
  EXPECT_EQ(system.resource_manager_ids(), rms);
  EXPECT_EQ(system.domains().size(), rms.size());
  EXPECT_EQ(system.peer_count(), reg.size());
  EXPECT_EQ(reg.count(PeerState::Crashed), 1u);
  EXPECT_EQ(reg.count(PeerState::Left), 1u);

  for (int i = 0; i < 50; ++i) {
    const auto pick = system.random_alive_peer(live.front());
    ASSERT_TRUE(pick.has_value());
    EXPECT_NE(*pick, live.front());
    EXPECT_TRUE(std::binary_search(live.begin(), live.end(), *pick));
    EXPECT_TRUE(system.peer(*pick)->joined());
  }
}

// Two worlds with one history except the order four late peers
// materialize in: their slots end up in opposite orders, their rows do
// not. The placement draws must not see the difference.
TEST(PeerRegistryCensus, RandomAlivePeerIgnoresSlotOrder) {
  struct Outcome {
    std::vector<util::PeerId> alive;
    std::vector<util::PeerId> draws;
  };
  const auto run = [](bool reversed) {
    media::Catalog catalog = media::ladder_catalog();
    SystemConfig config;
    config.seed = 21;
    System system(config);
    util::Rng rng(3);
    workload::ObjectPopulation population(catalog, {}, system, rng);
    workload::PeerFactory factory =
        workload::make_peer_factory(catalog, population, {}, {}, system, rng);
    workload::bootstrap_network(system, factory, 8);
    const util::PeerId rm = system.resource_manager_ids().front();

    // Explicit coordinates and contacts: no placement draws before the
    // ones under test.
    std::vector<util::PeerId> late;
    util::Rng spec_rng(9);
    for (int i = 0; i < 4; ++i) {
      late.push_back(system.add_lazy_peer(
          workload::draw_peer_spec({}, spec_rng, system.simulator().now()), {},
          net::Coordinates{100.0 + 50.0 * i, 200.0}));
    }
    if (reversed) std::reverse(late.begin(), late.end());
    for (const util::PeerId id : late) system.materialize_peer(id, rm);
    system.run_for(util::seconds(5));

    Outcome out;
    out.alive = system.alive_peer_ids();
    for (int i = 0; i < 64; ++i) {
      out.draws.push_back(*system.random_alive_peer(util::PeerId::invalid()));
    }
    return out;
  };
  const Outcome forward = run(false);
  const Outcome reversed = run(true);
  ASSERT_EQ(forward.alive.size(), 12u);
  EXPECT_EQ(forward.alive, reversed.alive);
  EXPECT_EQ(forward.draws, reversed.draws);
}

}  // namespace
}  // namespace p2prm
