// Deterministic pending-event set.
//
// Events at equal timestamps fire in insertion order (sequence-number
// tie-break), which is what makes whole-system runs bit-reproducible.
// Cancellation is lazy: a cancelled event stays in the heap but is skipped
// on pop, keeping cancel() O(1). When tombstones outnumber live events the
// heap is compacted in one pass (timer-heavy workloads — retries, churn —
// otherwise carry a heap mostly full of corpses). Compaction rebuilds the
// heap array but not the pop order: the (time, id) comparator is a total
// order, so runs stay bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "sim/event_fn.hpp"
#include "util/flat_map.hpp"
#include "util/time.hpp"

namespace p2prm::sim {

using EventId = std::uint64_t;

struct EventQueueStats {
  std::uint64_t compactions = 0;
  std::uint64_t tombstones_compacted = 0;
};

class EventQueue {
 public:
  EventId push(util::SimTime when, EventFn fn);

  // True if the event was still pending.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  // Timestamp of the next live event; kTimeInfinity when empty.
  [[nodiscard]] util::SimTime next_time();

  // Pops and returns the next live event. Precondition: !empty().
  struct Popped {
    util::SimTime when;
    EventId id;
    EventFn fn;
  };
  Popped pop();

  [[nodiscard]] std::uint64_t total_scheduled() const { return next_id_; }

  // Cancelled-but-unpopped entries still occupying heap slots.
  [[nodiscard]] std::size_t tombstones() const {
    return heap_.size() > live_ ? heap_.size() - live_ : 0;
  }
  [[nodiscard]] const EventQueueStats& stats() const { return stats_; }
  // Writes sim.event_queue.* (compaction counters plus live/tombstone
  // occupancy gauges) under `labels`.
  void publish(obs::MetricsRegistry& registry, obs::Labels labels = {}) const;

  // Compact once tombstones exceed the live population and this floor (the
  // floor keeps small queues from churning on every other cancel).
  static constexpr std::size_t kCompactMinTombstones = 64;

 private:
  struct Entry {
    util::SimTime when;
    EventId id;
    EventFn fn;
  };
  // Min-heap ordering: earlier time first, then lower id.
  static bool later(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.id > b.id;
  }

  void drop_cancelled_head();
  void compact();

  std::vector<Entry> heap_;
  util::FlatSet<EventId> cancelled_;
  EventId next_id_ = 0;
  std::size_t live_ = 0;
  EventQueueStats stats_;
};

}  // namespace p2prm::sim
