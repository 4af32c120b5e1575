#include "net/network.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace p2prm::net {

Network::Network(sim::Simulator& simulator, Topology& topology,
                 double drop_probability)
    : sim_(simulator),
      topology_(topology),
      drop_probability_(drop_probability),
      rng_(simulator.rng().fork()) {
  // 1.0 is a legitimate (if brutal) fault configuration: drop everything.
  if (drop_probability_ < 0.0 || drop_probability_ > 1.0) {
    throw std::invalid_argument("Network: drop_probability must be in [0,1]");
  }
}

void Network::attach(util::PeerId peer, LinkCapacity capacity, Handler handler) {
  if (!topology_.contains(peer)) {
    throw std::logic_error("Network::attach: peer not placed in topology");
  }
  auto& ep = endpoints_[peer];
  ep.capacity = capacity;
  ep.handler = std::move(handler);
  ++ep.epoch;
}

void Network::detach(util::PeerId peer) {
  const auto it = endpoints_.find(peer);
  if (it == endpoints_.end()) return;
  ++it->second.epoch;     // orphan in-flight deliveries
  it->second.handler = nullptr;
}

bool Network::attached(util::PeerId peer) const {
  const auto it = endpoints_.find(peer);
  return it != endpoints_.end() && it->second.handler != nullptr;
}

void Network::set_partition(
    const std::vector<std::vector<util::PeerId>>& groups) {
  islands_.clear();
  int island = 1;
  for (const auto& group : groups) {
    for (const auto peer : group) islands_[peer] = island;
    ++island;
  }
  if (islands_.empty()) {
    // set_partition({}) would otherwise read as "no partition"; treat it as
    // a no-op heal for clarity.
    return;
  }
}

void Network::heal_partition() { islands_.clear(); }

bool Network::can_reach(util::PeerId a, util::PeerId b) const {
  if (islands_.empty() || a == b) return true;
  const auto ia = islands_.find(a);
  const auto ib = islands_.find(b);
  const int ga = ia == islands_.end() ? 0 : ia->second;
  const int gb = ib == islands_.end() ? 0 : ib->second;
  return ga == gb;
}

util::SimDuration Network::estimate_delay(util::PeerId a, util::PeerId b,
                                          std::size_t bytes) const {
  if (a == b) return 0;
  const auto ia = endpoints_.find(a);
  const auto ib = endpoints_.find(b);
  double bottleneck = 1.25e6;
  if (ia != endpoints_.end() && ib != endpoints_.end()) {
    bottleneck = std::min(ia->second.capacity.uplink_bytes_per_s,
                          ib->second.capacity.downlink_bytes_per_s);
  }
  const double tx_s =
      static_cast<double>(bytes + kEnvelopeBytes) / std::max(bottleneck, 1.0);
  return topology_.latency(a, b) + util::from_seconds(tx_s);
}

void Network::send(util::PeerId from, util::PeerId to, MessagePtr message) {
  if (!message) throw std::invalid_argument("Network::send: null message");
  const std::size_t bytes = message->wire_size() + kEnvelopeBytes;
  const std::string type(message->type_name());

  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;
  ++stats_.per_type_count[type];
  stats_.per_type_bytes[type] += bytes;

  if (!attached(to)) {
    ++stats_.messages_undeliverable;
    return;
  }
  if (!can_reach(from, to)) {
    ++stats_.messages_partitioned;
    return;
  }
  if (drop_probability_ > 0.0 && rng_.bernoulli(drop_probability_)) {
    ++stats_.messages_dropped;
    return;
  }

  util::SimDuration delay;
  if (from == to) {
    delay = 0;
  } else {
    const auto& recv = endpoints_.at(to).capacity;
    double bottleneck = recv.downlink_bytes_per_s;
    const auto is = endpoints_.find(from);
    if (is != endpoints_.end()) {
      bottleneck = std::min(bottleneck, is->second.capacity.uplink_bytes_per_s);
    }
    const double tx_s = static_cast<double>(bytes) / std::max(bottleneck, 1.0);
    // FIFO uplink: transmission starts once earlier sends have drained the
    // sender's interface, so concurrent streams genuinely contend.
    util::SimDuration queue_wait = 0;
    if (is != endpoints_.end()) {
      auto& uplink_free_at = is->second.uplink_free_at;
      const util::SimTime start = std::max(sim_.now(), uplink_free_at);
      queue_wait = start - sim_.now();
      uplink_free_at = start + util::from_seconds(tx_s);
    }
    delay = queue_wait + util::from_seconds(tx_s) +
            topology_.latency_jittered(from, to, rng_);
  }
  // Even local sends must not run inline: handlers assume asynchronous
  // delivery (and may send during their own construction).
  delay = std::max<util::SimDuration>(delay, 1);

  FaultDecision fault;
  if (fault_hook_ != nullptr) {
    fault = fault_hook_->on_send(from, to, bytes, type);
  }
  if (fault.drop) {
    ++stats_.messages_fault_dropped;
    return;
  }
  if (fault.extra_delay > 0) {
    ++stats_.messages_delayed;
    delay += fault.extra_delay;
  }

  auto shared = std::shared_ptr<Message>(std::move(message));
  schedule_delivery(from, to, delay, shared);
  if (fault.duplicate_after > 0) {
    ++stats_.messages_duplicated;
    schedule_delivery(from, to, delay + fault.duplicate_after, shared);
  }
}

void Network::schedule_delivery(util::PeerId from, util::PeerId to,
                                util::SimDuration delay,
                                const std::shared_ptr<Message>& message) {
  const std::uint64_t epoch = endpoints_.at(to).epoch;
  sim_.schedule_after(delay, [this, from, to, epoch, message] {
    const auto it = endpoints_.find(to);
    if (it == endpoints_.end() || it->second.epoch != epoch ||
        !it->second.handler) {
      ++stats_.messages_undeliverable;
      return;
    }
    ++stats_.messages_delivered;
    it->second.handler(from, *message);
  });
}

void Network::publish(obs::MetricsRegistry& registry,
                      obs::Labels labels) const {
  publish_stats(stats_, registry, std::move(labels));
}

}  // namespace p2prm::net
