#include "core/peer_registry.hpp"

#include <cassert>

#include "core/peer_node.hpp"
#include "obs/metrics_registry.hpp"

namespace p2prm::core {

std::string_view peer_state_name(PeerState s) {
  switch (s) {
    case PeerState::Lazy: return "lazy";
    case PeerState::Live: return "live";
    case PeerState::Left: return "left";
    case PeerState::Crashed: return "crashed";
  }
  return "?";
}

PeerRegistry::PeerRegistry() = default;
PeerRegistry::~PeerRegistry() = default;

void PeerRegistry::reserve(std::size_t n) {
  id_.reserve(n);
  capacity_ops_.reserve(n);
  link_up_.reserve(n);
  link_down_.reserve(n);
  online_since_.reserve(n);
  x_.reserve(n);
  y_.reserve(n);
  state_.reserve(n);
  node_slot_.reserve(n);
  row_of_.reserve(n);
}

std::uint32_t PeerRegistry::add_row(const overlay::PeerSpec& spec,
                                    net::Coordinates at, PeerState state) {
  assert(spec.id.valid() && !contains(spec.id));
  const auto row = static_cast<std::uint32_t>(id_.size());
  id_.push_back(spec.id.value());
  capacity_ops_.push_back(spec.capacity_ops_per_s);
  link_up_.push_back(spec.link.uplink_bytes_per_s);
  link_down_.push_back(spec.link.downlink_bytes_per_s);
  online_since_.push_back(spec.online_since);
  x_.push_back(at.x);
  y_.push_back(at.y);
  state_.push_back(state);
  ++state_count_[static_cast<std::size_t>(state)];
  node_slot_.push_back(kNoSlot);
  row_of_.insert_or_assign(spec.id.value(), row);
  return row;
}

overlay::PeerSpec PeerRegistry::spec(std::uint32_t row) const {
  overlay::PeerSpec s;
  s.id = util::PeerId{id_[row]};
  s.capacity_ops_per_s = capacity_ops_[row];
  s.link.uplink_bytes_per_s = link_up_[row];
  s.link.downlink_bytes_per_s = link_down_[row];
  s.online_since = online_since_[row];
  return s;
}

PeerNode* PeerRegistry::attach_node(std::uint32_t row,
                                    std::unique_ptr<PeerNode> node) {
  assert(node_slot_[row] == kNoSlot);
  node_slot_[row] = static_cast<std::uint32_t>(nodes_.size());
  slot_row_.push_back(row);
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

std::unique_ptr<PeerNode> PeerRegistry::detach_node(std::uint32_t row) {
  const std::uint32_t slot = node_slot_[row];
  if (slot == kNoSlot) return nullptr;
  node_slot_[row] = kNoSlot;
  std::unique_ptr<PeerNode> out = std::move(nodes_[slot]);
  if (slot + 1 != nodes_.size()) {
    nodes_[slot] = std::move(nodes_.back());
    slot_row_[slot] = slot_row_.back();
    node_slot_[slot_row_[slot]] = slot;
  }
  nodes_.pop_back();
  slot_row_.pop_back();
  return out;
}

void PeerRegistry::stash_inventory(util::PeerId id, PeerInventory inventory) {
  if (inventory.objects.empty() && inventory.services.empty()) return;
  stashed_.insert_or_assign(
      id.value(), std::make_unique<PeerInventory>(std::move(inventory)));
}

PeerInventory PeerRegistry::take_inventory(util::PeerId id) {
  std::unique_ptr<PeerInventory>* stash = stashed_.find(id.value());
  if (stash == nullptr) return PeerInventory{};
  PeerInventory out = std::move(**stash);
  stashed_.erase(id.value());
  return out;
}

std::size_t PeerRegistry::footprint_bytes() const {
  std::size_t bytes = 0;
  bytes += id_.capacity() * sizeof(std::uint64_t);
  bytes += capacity_ops_.capacity() * sizeof(double);
  bytes += link_up_.capacity() * sizeof(double);
  bytes += link_down_.capacity() * sizeof(double);
  bytes += online_since_.capacity() * sizeof(util::SimTime);
  bytes += x_.capacity() * sizeof(double);
  bytes += y_.capacity() * sizeof(double);
  bytes += state_.capacity() * sizeof(PeerState);
  bytes += node_slot_.capacity() * sizeof(std::uint32_t);
  // The open-addressing table: key + value + used byte per bucket.
  bytes += row_of_.capacity() *
           (sizeof(std::uint64_t) + sizeof(std::uint32_t) + 1);
  return bytes;
}

void PeerRegistry::publish(obs::MetricsRegistry& registry) const {
  registry.gauge("core.peers.total").set(static_cast<double>(id_.size()));
  registry.gauge("core.peers.materialized")
      .set(static_cast<double>(materialized()));
  registry.gauge("core.peers.lazy")
      .set(static_cast<double>(count(PeerState::Lazy)));
  registry.gauge("core.peers.left")
      .set(static_cast<double>(count(PeerState::Left)));
  registry.gauge("core.peers.crashed")
      .set(static_cast<double>(count(PeerState::Crashed)));
  registry.gauge("core.peers.idle_bytes_per_peer")
      .set(id_.empty() ? 0.0
                       : static_cast<double>(footprint_bytes()) /
                             static_cast<double>(id_.size()));
}

}  // namespace p2prm::core
