// Engine: calendar ordering, determinism, task lifecycle, past-schedule
// clamping, and the equal-time wake order the sync primitives rely on.
#include <gtest/gtest.h>

#include <queue>
#include <utility>
#include <vector>

#include "sim/calendar.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace nwc::sim {
namespace {

Task<> delayer(Engine& e, Tick d, std::vector<Tick>* log) {
  co_await e.delay(d);
  log->push_back(e.now());
}

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_EQ(e.eventsProcessed(), 0u);
  EXPECT_EQ(e.pendingEvents(), 0u);
}

TEST(Engine, DelayAdvancesClock) {
  Engine e;
  std::vector<Tick> log;
  e.spawn(delayer(e, 100, &log));
  e.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 100u);
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<Tick> log;
  e.spawn(delayer(e, 300, &log));
  e.spawn(delayer(e, 100, &log));
  e.spawn(delayer(e, 200, &log));
  e.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 100u);
  EXPECT_EQ(log[1], 200u);
  EXPECT_EQ(log[2], 300u);
}

TEST(Engine, EqualTimeEventsFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  auto mk = [&](int id) -> Task<> {
    co_await e.delay(50);
    order.push_back(id);
  };
  for (int i = 0; i < 8; ++i) e.spawn(mk(i));
  e.run();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ZeroDelayIsReadyImmediately) {
  Engine e;
  bool ran = false;
  auto t = [&]() -> Task<> {
    co_await e.delay(0);
    ran = true;
  };
  e.spawn(t());
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.now(), 0u);
}

TEST(Engine, WaitUntilPastTimeDoesNotSuspend) {
  Engine e;
  std::uint64_t events_before = 0;
  auto t = [&]() -> Task<> {
    co_await e.delay(100);
    events_before = e.eventsProcessed();
    co_await e.waitUntil(50);  // already past
    EXPECT_EQ(e.now(), 100u);
  };
  e.spawn(t());
  e.run();
  // The waitUntil(50) must not have produced an extra event.
  EXPECT_EQ(e.eventsProcessed(), events_before);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine e;
  std::vector<Tick> log;
  e.spawn(delayer(e, 100, &log));
  e.spawn(delayer(e, 200, &log));
  e.runUntil(150);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(e.now(), 150u);
  e.run();
  EXPECT_EQ(log.size(), 2u);

  // A lone coroutine wakes inline, but never past the cap: the delay that
  // would land at 40 suspends and waits for the next run.
  std::vector<Tick> ticks;
  auto lone = [&]() -> Task<> {
    for (int i = 0; i < 4; ++i) {
      co_await e.delay(10);
      ticks.push_back(e.now());
    }
  };
  e.spawn(lone());
  e.runUntil(e.now() + 35);
  EXPECT_EQ(ticks, (std::vector<Tick>{210, 220, 230}));
  EXPECT_EQ(e.now(), 235u);
  EXPECT_EQ(e.pendingEvents(), 1u);
  e.run();
  EXPECT_EQ(ticks, (std::vector<Tick>{210, 220, 230, 240}));
}

TEST(Engine, StopHaltsProcessing) {
  Engine e;
  int count = 0;
  auto t = [&]() -> Task<> {
    for (int i = 0; i < 1000; ++i) {  // bounded: a missed stop fails, not hangs
      co_await e.delay(10);
      if (++count == 5) e.stop();
    }
  };
  e.spawn(t());
  e.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), 50u);
  // The delay awaited after stop() was not woken inline: it is pending.
  EXPECT_EQ(e.pendingEvents(), 1u);
}

TEST(Engine, InlineWakeKeepsSameTickFifoOrder) {
  // `first` wants tick 20 after `second` already holds an event there: it
  // must not wake inline ahead of `second`.
  Engine e;
  std::vector<int> order;
  auto first = [&]() -> Task<> {
    co_await e.delay(10);
    co_await e.delay(10);
    order.push_back(1);
  };
  auto second = [&]() -> Task<> {
    co_await e.delay(20);
    order.push_back(2);
  };
  e.spawn(first());
  e.spawn(second());
  e.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(e.now(), 20u);
}

TEST(Engine, EventsProcessedCountsInlineWakes) {
  // A lone coroutine: its start plus one event per delay, all of them
  // inline wake-ups, exactly as many as the calendar round trips would be.
  constexpr int kDelays = 1000;
  Engine e;
  auto lone = [&]() -> Task<> {
    for (int i = 0; i < kDelays; ++i) co_await e.delay(1 + static_cast<Tick>(i % 5000));
  };
  e.spawn(lone());
  e.run();
  EXPECT_EQ(e.eventsProcessed(), static_cast<std::uint64_t>(kDelays) + 1);
}

TEST(Engine, TaskReturnsValue) {
  Engine e;
  auto child = [&]() -> Task<int> {
    co_await e.delay(5);
    co_return 42;
  };
  int got = 0;
  auto parent = [&]() -> Task<> { got = co_await child(); };
  e.spawn(parent());
  e.run();
  EXPECT_EQ(got, 42);
}

TEST(Engine, NestedTasksComposeTimes) {
  Engine e;
  auto leaf = [&]() -> Task<> { co_await e.delay(10); };
  auto mid = [&]() -> Task<> {
    co_await leaf();
    co_await leaf();
  };
  Tick end = 0;
  auto top = [&]() -> Task<> {
    co_await mid();
    end = e.now();
  };
  e.spawn(top());
  e.run();
  EXPECT_EQ(end, 20u);
}

TEST(Engine, ExceptionPropagatesToAwaiter) {
  Engine e;
  auto thrower = [&]() -> Task<> {
    co_await e.delay(1);
    throw std::runtime_error("boom");
  };
  bool caught = false;
  auto top = [&]() -> Task<> {
    try {
      co_await thrower();
    } catch (const std::runtime_error&) {
      caught = true;
    }
  };
  e.spawn(top());
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, AllSpawnedDoneTracksCompletion) {
  Engine e;
  std::vector<Tick> log;
  e.spawn(delayer(e, 10, &log));
  EXPECT_FALSE(e.allSpawnedDone());
  e.run();
  EXPECT_TRUE(e.allSpawnedDone());
}

TEST(Engine, ManyTasksAreReaped) {
  Engine e;
  std::vector<Tick> log;
  for (int i = 0; i < 10000; ++i) e.spawn(delayer(e, static_cast<Tick>(i % 97), &log));
  e.run();
  EXPECT_EQ(log.size(), 10000u);
  EXPECT_TRUE(e.allSpawnedDone());
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    std::vector<Tick> log;
    for (int i = 0; i < 50; ++i) e.spawn(delayer(e, static_cast<Tick>((i * 37) % 101), &log));
    e.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- CalendarQueue -----------------------------------------------------

TEST(CalendarQueue, TortureMatchesReferenceHeap) {
  // Random push/pop interleaving against the std::priority_queue the
  // calendar replaced. Pushes never go below the last popped tick (the
  // engine clamps to now()), matching the queue's documented contract.
  // Offsets cover both tiers and their boundary: the current tick (the
  // slot being drained), small and large offsets inside the wheel's window,
  // the first ticks at and past kWindow, and far beyond it.
  CalendarQueue q;
  using Ref = std::pair<Tick, std::uint64_t>;
  auto greater = [](const Ref& a, const Ref& b) { return a > b; };
  std::priority_queue<Ref, std::vector<Ref>, decltype(greater)> ref(greater);
  Rng rng(0xca1);
  std::uint64_t seq = 0;
  Tick cur = 0;
  constexpr Tick kW = CalendarQueue::kWindow;
  auto offset = [&]() -> Tick {
    switch (rng.below(16)) {
      case 0: case 1: return 0;
      case 2: case 3: case 4: case 5: case 6: case 7: return rng.below(16);
      case 8: case 9: case 10: case 11: return rng.below(kW);
      case 12: return kW - 1;
      case 13: return kW;
      case 14: return kW + 1 + rng.below(kW);
      default: return rng.below(64) == 0 ? 1000000 + rng.below(1000) : rng.below(4 * kW);
    }
  };
  for (int step = 0; step < 400000; ++step) {
    if (ref.empty() || rng.below(8) < 4) {
      const Tick t = cur + offset();
      q.push(t, seq, {});
      ref.push({t, seq});
      ++seq;
    } else {
      ASSERT_FALSE(q.empty());
      EXPECT_EQ(q.nextTick(), ref.top().first);
      const CalEntry e = q.pop();
      ASSERT_EQ(e.t, ref.top().first);
      ASSERT_EQ(e.seq, ref.top().second);
      ref.pop();
      cur = e.t;
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  // The popped ticks swept the wheel's window many times over.
  EXPECT_GT(cur, 20 * kW);
  while (!ref.empty()) {
    const CalEntry e = q.pop();
    ASSERT_EQ(e.t, ref.top().first);
    ASSERT_EQ(e.seq, ref.top().second);
    ref.pop();
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.nextTick(), kTickMax);
}

TEST(CalendarQueue, SameTickAppendsWhileDraining) {
  // A tick's slot can grow *while* it drains (Signal::notifyAll storms do
  // this): once tick 5 starts popping, new tick-5 pushes must append to its
  // FIFO and still pop before tick 6 — including after the slot momentarily
  // empties.
  CalendarQueue q;
  q.push(5, 0, {});
  q.push(6, 1, {});
  EXPECT_EQ(q.pop().seq, 0u);   // tick 5 is now draining (slot empty)
  q.push(5, 2, {});             // late same-tick arrival
  q.push(5, 3, {});
  EXPECT_EQ(q.pop().seq, 2u);
  q.push(5, 4, {});             // slot drained once already; still tick 5
  EXPECT_EQ(q.pop().seq, 3u);
  EXPECT_EQ(q.pop().seq, 4u);
  EXPECT_EQ(q.pop().seq, 1u);   // only now does tick 6 fire
  EXPECT_TRUE(q.empty());
}

TEST(Engine, PastScheduleClampsAndCounts) {
  Engine e;
  struct PastAwaiter {
    Engine& e;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      e.scheduleAt(e.now() - 10, h);  // silently clamped to now()
    }
    void await_resume() const {}
  };
  Tick fired = 0;
  auto t = [&]() -> Task<> {
    co_await e.delay(100);
    co_await PastAwaiter{e};
    fired = e.now();
  };
  e.spawn(t());
  e.run();
  EXPECT_EQ(fired, 100u);  // clamped, not time-travelled
  EXPECT_EQ(e.clampedSchedules(), 1u);
}

TEST(Engine, CoMutexReleasesEqualTimeWaitersInFifoOrder) {
  // Every waiter queues at tick 0 and is woken at tick 50 by a hand-off
  // scheduled at now(): the wake order must be the queueing order, not the
  // waiter ids.
  Engine e;
  CoMutex m(e);
  std::vector<std::pair<int, Tick>> log;
  auto holder = [&]() -> Task<> {
    co_await m.lock();
    co_await e.delay(50);
    m.unlock();
  };
  auto waiter = [&](int id) -> Task<> {
    co_await m.lock();
    log.push_back({id, e.now()});
    m.unlock();
  };
  e.spawn(holder());
  for (const int id : {3, 1, 4, 2, 5}) e.spawn(waiter(id));
  e.run();
  const std::vector<std::pair<int, Tick>> want = {
      {3, 50}, {1, 50}, {4, 50}, {2, 50}, {5, 50}};
  EXPECT_EQ(log, want);
  EXPECT_FALSE(m.locked());
  EXPECT_EQ(m.waiterCount(), 0u);
}

}  // namespace
}  // namespace nwc::sim
