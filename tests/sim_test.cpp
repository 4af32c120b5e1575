#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace p2prm::sim {
namespace {

using util::milliseconds;
using util::seconds;

TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue q;
  std::vector<int> order;
  q.push(20, [&] { order.push_back(2); });
  q.push(10, [&] { order.push_back(1); });
  q.push(10, [&] { order.push_back(11); });  // same time, later insertion
  while (!q.empty()) {
    auto e = q.pop();
    e.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  const auto id = q.push(10, [&] { ++fired; });
  q.push(20, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 20);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, EmptyReportsInfinity) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), util::kTimeInfinity);
}

TEST(EventQueue, CompactionPreservesPopOrderAndDropsTombstones) {
  // Equivalence test for tombstone compaction: a cancel-heavy queue must
  // fire exactly the same surviving events, in exactly the same order, as
  // one that never compacts (few tombstones -> threshold never trips).
  util::Rng rng(31);
  std::vector<util::SimTime> times;
  for (int i = 0; i < 400; ++i) {
    times.push_back(static_cast<util::SimTime>(rng.below(10000)));
  }

  EventQueue heavy;  // cancels 3 of 4 -> compacts
  std::vector<std::pair<util::SimTime, int>> heavy_fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 400; ++i) {
    const int tag = i;
    ids.push_back(
        heavy.push(times[static_cast<std::size_t>(i)],
                   [&heavy_fired, tag] { heavy_fired.emplace_back(0, tag); }));
  }
  for (int i = 0; i < 400; ++i) {
    if (i % 4 != 0) {
      EXPECT_TRUE(heavy.cancel(ids[static_cast<std::size_t>(i)]));
    }
  }
  EXPECT_GT(heavy.stats().compactions, 0u);
  EXPECT_GT(heavy.stats().tombstones_compacted, 0u);
  while (!heavy.empty()) {
    auto e = heavy.pop();
    e.fn();
    heavy_fired.back().first = e.when;
  }

  // Reference: only the surviving events ever enter the queue.
  EventQueue reference;
  std::vector<std::pair<util::SimTime, int>> ref_fired;
  for (int i = 0; i < 400; i += 4) {
    const int tag = i;
    reference.push(times[static_cast<std::size_t>(i)],
                   [&ref_fired, tag] { ref_fired.emplace_back(0, tag); });
  }
  EXPECT_EQ(reference.stats().compactions, 0u);
  while (!reference.empty()) {
    auto e = reference.pop();
    e.fn();
    ref_fired.back().first = e.when;
  }

  // Same events, same times, same relative order: (when, insertion) is a
  // total order, so compaction cannot reorder anything.
  ASSERT_EQ(heavy_fired.size(), 100u);
  for (std::size_t i = 0; i < heavy_fired.size(); ++i) {
    EXPECT_EQ(heavy_fired[i].first, ref_fired[i].first) << i;
    EXPECT_EQ(heavy_fired[i].second, ref_fired[i].second) << i;
  }
}

TEST(EventQueue, CompactionBelowThresholdNeverTriggers) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 60; ++i) {
    ids.push_back(q.push(i, [] {}));
  }
  // All tombstones, but fewer than kCompactMinTombstones: stay lazy.
  for (int i = 0; i < 40; ++i) EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
  EXPECT_EQ(q.stats().compactions, 0u);
  EXPECT_EQ(q.tombstones(), 40u);
  std::size_t fired = 0;
  while (!q.empty()) {
    q.pop();
    ++fired;
  }
  EXPECT_EQ(fired, 20u);
}

TEST(EventFn, MoveOnlyCapturesStayInline) {
  // The event hot path must not heap-allocate for the typical capture
  // (a couple of pointers/ids) — including move-only ones.
  const auto before = EventFn::heap_constructions();
  auto owned = std::make_unique<int>(41);
  int result = 0;
  EventFn fn([p = std::move(owned), &result] { result = *p + 1; });
  EXPECT_TRUE(static_cast<bool>(fn));
  EventFn moved = std::move(fn);
  moved();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(EventFn::heap_constructions(), before);
}

TEST(EventFn, OversizedCapturesSpillToHeapAndStillRun) {
  const auto before = EventFn::heap_constructions();
  std::array<std::uint64_t, 16> big{};  // 128 bytes: exceeds the SBO buffer
  big[7] = 9;
  std::uint64_t seen = 0;
  EventFn fn([big, &seen] { seen = big[7]; });
  EXPECT_EQ(EventFn::heap_constructions(), before + 1);
  EventFn moved = std::move(fn);  // heap case moves the pointer, no realloc
  moved();
  EXPECT_EQ(seen, 9u);
  EXPECT_EQ(EventFn::heap_constructions(), before + 1);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<util::SimTime> stamps;
  sim.schedule_at(seconds(3), [&] { stamps.push_back(sim.now()); });
  sim.schedule_at(seconds(1), [&] { stamps.push_back(sim.now()); });
  sim.schedule_after(seconds(2), [&] { stamps.push_back(sim.now()); });
  sim.run_until();
  EXPECT_EQ(stamps, (std::vector<util::SimTime>{seconds(1), seconds(2), seconds(3)}));
}

TEST(Simulator, RunUntilHorizonStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] { ++fired; });
  sim.schedule_at(seconds(10), [&] { ++fired; });
  sim.run_until(seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), seconds(5));
  sim.run_until(seconds(20));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.schedule_at(seconds(2), [] {});
  sim.run_until();
  EXPECT_EQ(sim.now(), seconds(2));
  EXPECT_THROW(sim.schedule_at(seconds(1), [] {}), std::logic_error);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(milliseconds(1), recurse);
  };
  sim.schedule_after(milliseconds(1), recurse);
  sim.run_until();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST(Simulator, StopInsideHandlerHalts) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(seconds(2), [&] { ++fired; });
  sim.run_until();
  EXPECT_EQ(fired, 1);
  sim.run_until();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunEventsBudget) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(seconds(i + 1), [&] { ++fired; });
  }
  EXPECT_EQ(sim.run_events(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(Timer, FiresPeriodicallyUntilCancelled) {
  Simulator sim;
  int ticks = 0;
  Timer t = sim.every(seconds(1), [&] { ++ticks; });
  sim.run_until(seconds(5));
  EXPECT_EQ(ticks, 5);
  t.cancel();
  EXPECT_FALSE(t.active());
  sim.run_until(seconds(10));
  EXPECT_EQ(ticks, 5);
}

TEST(Timer, InitialDelayIndependentOfPeriod) {
  Simulator sim;
  std::vector<util::SimTime> stamps;
  sim.every(milliseconds(500), seconds(2), [&] { stamps.push_back(sim.now()); });
  sim.run_until(seconds(5));
  ASSERT_GE(stamps.size(), 2u);
  EXPECT_EQ(stamps[0], milliseconds(500));
  EXPECT_EQ(stamps[1], milliseconds(2500));
}

TEST(Timer, CallbackMayCancelItself) {
  Simulator sim;
  int ticks = 0;
  Timer t;
  t = sim.every(seconds(1), [&] {
    if (++ticks == 3) t.cancel();
  });
  sim.run_until(seconds(10));
  EXPECT_EQ(ticks, 3);
}

TEST(Timer, ZeroPeriodRejected) {
  Simulator sim;
  EXPECT_THROW(sim.every(0, [] {}), std::invalid_argument);
}

TEST(Simulator, DeterministicEventCountAcrossRuns) {
  auto run = [] {
    Simulator sim(5);
    int sum = 0;
    for (int i = 0; i < 100; ++i) {
      sim.schedule_after(static_cast<util::SimDuration>(sim.rng().below(1000) + 1),
                         [&sum, &sim, i] { sum += i * static_cast<int>(sim.now() % 97); });
    }
    sim.run_until();
    return sum;
  };
  EXPECT_EQ(run(), run());
}

TEST(EventQueue, CancelAfterPopIsHarmless) {
  EventQueue q;
  const auto id = q.push(5, [] {});
  auto e = q.pop();
  e.fn();
  // The event already ran; cancelling its id must not corrupt the queue.
  q.push(7, [] {});
  q.cancel(id);
  EXPECT_GE(q.size(), 0u);
  EXPECT_LE(q.next_time(), util::kTimeInfinity);
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  int fired = 0;
  const auto id = sim.schedule_at(seconds(1), [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_until();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, NextEventTimeAndIdleFollowLiveHead) {
  // The realtime driver sizes its poll() timeout from these two calls, so
  // a cancelled head must not hold them on a dead event.
  Simulator sim;
  const auto first = sim.schedule_at(seconds(1), [] {});
  sim.schedule_at(seconds(2), [] {});
  EXPECT_TRUE(sim.cancel(first));
  EXPECT_EQ(sim.next_event_time(), seconds(2));
  EXPECT_FALSE(sim.idle());
  sim.run_until();
  EXPECT_EQ(sim.next_event_time(), util::kTimeInfinity);
  EXPECT_TRUE(sim.idle());
}

}  // namespace
}  // namespace p2prm::sim
