#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace p2prm::sim {

EventId EventQueue::push(util::SimTime when, EventFn fn) {
  const EventId id = next_id_++;
  heap_.push_back(Entry{when, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), later);
  ++live_;
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (id >= next_id_) return false;
  // Only mark if it could still be pending; popped events are gone from the
  // heap, and double-cancel must not corrupt the live count.
  if (cancelled_.insert(id)) {
    // We cannot cheaply tell whether `id` was already popped; callers only
    // cancel ids they know are pending (timer handles), so decrement here.
    if (live_ == 0) return false;
    --live_;
    if (tombstones() > live_ && tombstones() >= kCompactMinTombstones) {
      compact();
    }
    return true;
  }
  return false;
}

void EventQueue::compact() {
  const auto keep =
      std::remove_if(heap_.begin(), heap_.end(), [&](const Entry& e) {
        return cancelled_.contains(e.id);
      });
  stats_.tombstones_compacted += static_cast<std::uint64_t>(heap_.end() - keep);
  heap_.erase(keep, heap_.end());
  // Every cancelled id that was still in the heap is now gone, and ids of
  // already-popped events can never re-enter (ids are unique), so the whole
  // set can be dropped.
  cancelled_.clear();
  std::make_heap(heap_.begin(), heap_.end(), later);
  ++stats_.compactions;
}

void EventQueue::drop_cancelled_head() {
  while (!heap_.empty()) {
    if (!cancelled_.erase(heap_.front().id)) return;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
}

util::SimTime EventQueue::next_time() {
  drop_cancelled_head();
  return heap_.empty() ? util::kTimeInfinity : heap_.front().when;
}

EventQueue::Popped EventQueue::pop() {
  drop_cancelled_head();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  --live_;
  return Popped{e.when, e.id, std::move(e.fn)};
}

void EventQueue::publish(obs::MetricsRegistry& registry,
                         obs::Labels labels) const {
  registry.counter("sim.event_queue.scheduled", labels).set(next_id_);
  registry.counter("sim.event_queue.compactions", labels)
      .set(stats_.compactions);
  registry.counter("sim.event_queue.tombstones_compacted", labels)
      .set(stats_.tombstones_compacted);
  registry.gauge("sim.event_queue.live", labels)
      .set(static_cast<double>(live_));
  registry.gauge("sim.event_queue.tombstones", labels)
      .set(static_cast<double>(tombstones()));
}

}  // namespace p2prm::sim
