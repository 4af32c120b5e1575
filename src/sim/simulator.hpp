// The discrete-event simulator every subsystem runs on.
//
// This is the substitute for a wide-area deployment (see DESIGN.md §2):
// peers, resource managers and the network are event-driven entities whose
// only notion of time is Simulator::now(). A repeating Timer models the
// paper's periodic activities (profiler reports, backup-RM sync, gossip
// rounds).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace p2prm::sim {

class Simulator;

// Handle to a repeating timer. Cancelling is idempotent; destroying the
// handle does NOT cancel (entities often fire-and-forget periodic work that
// must outlive local scopes).
class Timer {
 public:
  Timer() = default;

  void cancel();
  [[nodiscard]] bool active() const;

 private:
  friend class Simulator;
  struct State {
    bool active = false;
    EventId pending = 0;
    Simulator* sim = nullptr;
  };
  explicit Timer(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] util::SimTime now() const { return now_; }
  [[nodiscard]] double now_seconds() const { return util::to_seconds(now_); }

  // Root RNG for the run; subsystems should fork() their own streams.
  [[nodiscard]] util::Rng& rng() { return rng_; }

  EventId schedule_at(util::SimTime when, EventFn fn);
  EventId schedule_after(util::SimDuration delay, EventFn fn);
  bool cancel(EventId id) { return queue_.cancel(id); }

  // Repeating timer: first fires after `period` (or `initial_delay` if
  // given), then every `period` until cancelled.
  Timer every(util::SimDuration period, std::function<void()> fn);
  Timer every(util::SimDuration initial_delay, util::SimDuration period,
              std::function<void()> fn);

  // Run until the queue drains or `until` is passed (events at exactly
  // `until` still run). Returns the number of events executed.
  std::uint64_t run_until(util::SimTime until = util::kTimeInfinity);
  // Execute at most `max_events` events.
  std::uint64_t run_events(std::uint64_t max_events);

  // Request an orderly stop from inside an event handler.
  void stop() { stop_requested_ = true; }

  [[nodiscard]] bool idle() {
    return queue_.next_time() == util::kTimeInfinity;
  }
  // Time of the earliest pending event (kTimeInfinity when idle). The
  // realtime driver uses it to size poll() timeouts.
  [[nodiscard]] util::SimTime next_event_time() { return queue_.next_time(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::uint64_t events_scheduled() const {
    return queue_.total_scheduled();
  }
  // Read-only view of the pending-event set (tombstone/compaction stats).
  [[nodiscard]] const EventQueue& queue() const { return queue_; }
  // Same as queue().publish(); bench/e2e/workloads.cpp still calls it.
  void publish_queue(obs::MetricsRegistry& registry,
                     obs::Labels labels = {}) const {
    queue_.publish(registry, std::move(labels));
  }

 private:
  util::SimTime now_ = util::kTimeZero;
  EventQueue queue_;
  util::Rng rng_;
  bool stop_requested_ = false;
  std::uint64_t executed_ = 0;
};

}  // namespace p2prm::sim
