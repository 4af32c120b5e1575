#include "sim/simulator.hpp"

#include <cassert>
#include <stdexcept>

namespace p2prm::sim {

void Timer::cancel() {
  if (!state_ || !state_->active) return;
  state_->active = false;
  state_->sim->cancel(state_->pending);
}

bool Timer::active() const { return state_ && state_->active; }

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

EventId Simulator::schedule_at(util::SimTime when, EventFn fn) {
  if (when < now_) {
    throw std::logic_error("schedule_at: cannot schedule into the past");
  }
  return queue_.push(when, std::move(fn));
}

EventId Simulator::schedule_after(util::SimDuration delay, EventFn fn) {
  assert(delay >= 0);
  return schedule_at(now_ + delay, std::move(fn));
}

Timer Simulator::every(util::SimDuration period, std::function<void()> fn) {
  return every(period, period, std::move(fn));
}

Timer Simulator::every(util::SimDuration initial_delay, util::SimDuration period,
                       std::function<void()> fn) {
  if (period <= 0) throw std::invalid_argument("Timer period must be positive");
  auto state = std::make_shared<Timer::State>();
  state->sim = this;
  state->active = true;
  // The tick re-arms itself before invoking the callback so that the
  // callback may itself cancel the timer. It holds only a weak reference to
  // its own closure — the pending event owns the strong one — so cancelled
  // timers release their closure instead of leaking a shared_ptr cycle.
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_tick = tick;
  *tick = [this, state, period, fn = std::move(fn), weak_tick]() {
    if (!state->active) return;
    auto self = weak_tick.lock();
    if (!self) return;
    state->pending = schedule_after(period, [self] { (*self)(); });
    fn();
  };
  state->pending = schedule_after(initial_delay, [tick] { (*tick)(); });
  return Timer(std::move(state));
}

std::uint64_t Simulator::run_until(util::SimTime until) {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!stop_requested_) {
    const util::SimTime t = queue_.next_time();
    if (t == util::kTimeInfinity || t > until) break;
    auto ev = queue_.pop();
    now_ = ev.when;
    ev.fn();
    ++n;
    ++executed_;
  }
  // Advance the clock to the horizon even if the queue drained early, so
  // back-to-back run_until calls observe monotonically increasing time.
  if (!stop_requested_ && until != util::kTimeInfinity && now_ < until) {
    now_ = until;
  }
  return n;
}

std::uint64_t Simulator::run_events(std::uint64_t max_events) {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (n < max_events && !stop_requested_) {
    const util::SimTime t = queue_.next_time();
    if (t == util::kTimeInfinity) break;
    auto ev = queue_.pop();
    now_ = ev.when;
    ev.fn();
    ++n;
    ++executed_;
  }
  return n;
}

}  // namespace p2prm::sim
