// Flat, struct-of-arrays registry of every peer the System has ever seen.
//
// The million-peer ceiling (ROADMAP "Million-peer simulations") is set by
// per-peer heap objects: a PeerNode carries a Processor, Profiler,
// ConnectionManager and half a dozen maps, which is fine for the peers that
// actually exchange events but fatal when 99% of a million-peer population
// is idle. The registry splits the two populations:
//
//   * every peer owns one *row* — parallel flat columns (id, capacity,
//     link, uptime origin, coordinates, lifecycle state) totalling a few
//     dozen bytes, accounted exactly by footprint_bytes();
//   * only *materialized* peers own a PeerNode, stored in a dense slot
//     vector the row indexes into (and that indexes back to the row).
//
// Lazy peers (state Lazy, no node) are registered but have never touched
// the network; System::materialize_peer builds their full state on first
// touch and System::demote_peer returns a quiescent node to a bare row.
// The `core.peers.*` gauges published from here (notably
// `core.peers.materialized`) make the split observable.
//
// Every census is O(materialized), never O(rows): for_each_node walks the
// slots, and the per-state row counts are kept up to date by add_row and
// set_state. Only for_each_row (System::peer_ids) touches the population.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/topology.hpp"
#include "overlay/peer.hpp"
#include "util/flat_map.hpp"

namespace p2prm::obs {
class MetricsRegistry;
}

namespace p2prm::core {

class PeerNode;
struct PeerInventory;

// Lifecycle of a row. Lazy rows have no node; all other states do (Left and
// Crashed keep their node so restart_peer can recover spec + inventory, the
// same contract the old per-peer map had).
enum class PeerState : std::uint8_t { Lazy, Live, Left, Crashed };
inline constexpr std::size_t kPeerStateCount = 4;
[[nodiscard]] std::string_view peer_state_name(PeerState s);

class PeerRegistry {
 public:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  PeerRegistry();
  ~PeerRegistry();
  PeerRegistry(const PeerRegistry&) = delete;
  PeerRegistry& operator=(const PeerRegistry&) = delete;

  // Pre-sizes every column (and the id->row map) for `n` peers so a bulk
  // registration neither rehashes nor reallocates — this is what makes
  // footprint_bytes()/size() a sharp per-peer figure at scale.
  void reserve(std::size_t n);

  // Adds a row for a peer not yet registered. Coordinates are the peer's
  // (already drawn) placement; they are pushed into the Topology only when
  // the peer materializes. Returns the row index.
  std::uint32_t add_row(const overlay::PeerSpec& spec, net::Coordinates at,
                        PeerState state);

  [[nodiscard]] bool contains(util::PeerId id) const {
    return row_of_.contains(id.value());
  }
  // Row index or kNoSlot.
  [[nodiscard]] std::uint32_t row_of(util::PeerId id) const {
    const std::uint32_t* r = row_of_.find(id.value());
    return r == nullptr ? kNoSlot : *r;
  }

  // --- column access (row index from row_of) -------------------------------
  [[nodiscard]] std::size_t size() const { return id_.size(); }
  [[nodiscard]] util::PeerId id(std::uint32_t row) const {
    return util::PeerId{id_[row]};
  }
  [[nodiscard]] PeerState state(std::uint32_t row) const { return state_[row]; }
  void set_state(std::uint32_t row, PeerState s) {
    --state_count_[static_cast<std::size_t>(state_[row])];
    ++state_count_[static_cast<std::size_t>(s)];
    state_[row] = s;
  }
  // Rows currently in state `s`. O(1).
  [[nodiscard]] std::size_t count(PeerState s) const {
    return state_count_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] net::Coordinates coordinates(std::uint32_t row) const {
    return net::Coordinates{x_[row], y_[row]};
  }
  // Rebuilds the announced spec of a row (identity, capacity, link, uptime
  // origin) — everything a PeerNode needs to come back to life.
  [[nodiscard]] overlay::PeerSpec spec(std::uint32_t row) const;
  void set_online_since(std::uint32_t row, util::SimTime t) {
    online_since_[row] = t;
  }

  // --- node storage ---------------------------------------------------------
  // Attaches a freshly built node to the row (row must not have one).
  // Pointer-stable: slots hold owning pointers, so the returned raw pointer
  // survives other attach/detach calls even though slots move.
  PeerNode* attach_node(std::uint32_t row, std::unique_ptr<PeerNode> node);
  // Removes and returns the row's node (caller decides to destroy or park).
  // The last slot moves into the hole, keeping the slots dense.
  std::unique_ptr<PeerNode> detach_node(std::uint32_t row);
  [[nodiscard]] PeerNode* node(std::uint32_t row) const {
    const std::uint32_t s = node_slot_[row];
    return s == kNoSlot ? nullptr : nodes_[s].get();
  }
  [[nodiscard]] PeerNode* node_of(util::PeerId id) const {
    const std::uint32_t r = row_of(id);
    return r == kNoSlot ? nullptr : node(r);
  }
  [[nodiscard]] std::size_t materialized() const { return nodes_.size(); }

  // Calls fn(row, PeerNode&) for every row that has a node, in slot order,
  // which attach/detach history decides — callers that expose ordering
  // must sort. O(materialized). fn must not attach or detach nodes.
  template <typename Fn>
  void for_each_node(Fn&& fn) const {
    for (std::size_t s = 0; s < nodes_.size(); ++s) {
      fn(slot_row_[s], *nodes_[s]);
    }
  }
  // Calls fn(row) for every row, materialized or not.
  template <typename Fn>
  void for_each_row(Fn&& fn) const {
    for (std::uint32_t row = 0; row < id_.size(); ++row) fn(row);
  }

  // --- lazy-peer inventory stash -------------------------------------------
  // Lazy rows with a non-empty provisioned inventory keep it here until
  // materialization (most lazy peers carry nothing, so this stays tiny).
  void stash_inventory(util::PeerId id, PeerInventory inventory);
  // Removes and returns the stash (empty inventory when none).
  PeerInventory take_inventory(util::PeerId id);

  // --- accounting ------------------------------------------------------------
  // Bytes owned by the flat per-peer rows: column storage (at current
  // capacity) plus the id->row map's table. Deliberately *excludes*
  // materialized PeerNodes and stashed inventories — divide by size() for
  // the idle bytes/peer figure the scale test budgets (docs/SCALING.md).
  [[nodiscard]] std::size_t footprint_bytes() const;

  // core.peers.{total,materialized,lazy,left,crashed} gauges.
  void publish(obs::MetricsRegistry& registry) const;

 private:
  // SoA columns, index = row.
  std::vector<std::uint64_t> id_;
  std::vector<double> capacity_ops_;
  std::vector<double> link_up_;
  std::vector<double> link_down_;
  std::vector<util::SimTime> online_since_;
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<PeerState> state_;
  std::vector<std::uint32_t> node_slot_;

  util::FlatMap<std::uint64_t, std::uint32_t> row_of_;

  // Materialized nodes, dense; slot_row_[s] is the row owning nodes_[s].
  std::vector<std::unique_ptr<PeerNode>> nodes_;
  std::vector<std::uint32_t> slot_row_;

  // Rows per PeerState, indexed by the enum value.
  std::array<std::size_t, kPeerStateCount> state_count_{};

  util::FlatMap<std::uint64_t, std::unique_ptr<PeerInventory>> stashed_;
};

}  // namespace p2prm::core
