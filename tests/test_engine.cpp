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
}

TEST(Engine, StopHaltsProcessing) {
  Engine e;
  int count = 0;
  auto t = [&]() -> Task<> {
    for (;;) {
      co_await e.delay(10);
      if (++count == 5) e.stop();
    }
  };
  e.spawn(t());
  e.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), 50u);
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
  e.spawn(delayer(e, 10, new std::vector<Tick>()));  // deliberately leaked log
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
  // calendar replaced. Pushes never go below the tick being drained (the
  // engine clamps to now()), matching the queue's documented contract;
  // offset 0 pushes land on the draining tick, hitting the batch-append
  // path mid-drain.
  CalendarQueue q;
  using Ref = std::pair<Tick, std::uint64_t>;
  auto greater = [](const Ref& a, const Ref& b) { return a > b; };
  std::priority_queue<Ref, std::vector<Ref>, decltype(greater)> ref(greater);
  Rng rng(0xca1);
  std::uint64_t seq = 0;
  Tick cur = 0;
  for (int step = 0; step < 100000; ++step) {
    if (ref.empty() || rng.below(8) < 5) {
      const Tick t = cur + static_cast<Tick>(rng.below(16));
      q.push(t, seq, {});
      ref.push({t, seq});
      ++seq;
    } else {
      ASSERT_FALSE(q.empty());
      EXPECT_EQ(q.peek().t, ref.top().first);
      const CalEntry e = q.pop();
      ASSERT_EQ(e.t, ref.top().first);
      ASSERT_EQ(e.seq, ref.top().second);
      ref.pop();
      cur = e.t;
    }
    EXPECT_EQ(q.size(), ref.size());
  }
  while (!ref.empty()) {
    const CalEntry e = q.pop();
    ASSERT_EQ(e.t, ref.top().first);
    ASSERT_EQ(e.seq, ref.top().second);
    ref.pop();
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SameTickAppendsWhileDraining) {
  // A batch can grow *while* it drains (Signal::notifyAll storms do this):
  // once tick 5 starts popping, new tick-5 pushes must append to the batch
  // and still pop before tick 6 — including after the batch momentarily
  // empties.
  CalendarQueue q;
  q.push(5, 0, {});
  q.push(6, 1, {});
  EXPECT_EQ(q.pop().seq, 0u);   // tick 5 is now draining (batch empty)
  q.push(5, 2, {});             // late same-tick arrival
  q.push(5, 3, {});
  EXPECT_EQ(q.pop().seq, 2u);
  q.push(5, 4, {});             // batch drained once already; still tick 5
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
