// CoMutex / CoBarrier / Trigger / Signal.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/trigger.hpp"

namespace nwc::sim {
namespace {

TEST(CoMutex, UncontendedLockIsImmediate) {
  Engine e;
  CoMutex m(e);
  bool done = false;
  auto t = [&]() -> Task<> {
    co_await m.lock();
    EXPECT_TRUE(m.locked());
    m.unlock();
    EXPECT_FALSE(m.locked());
    done = true;
  };
  e.spawn(t());
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), 0u);  // no time passed
}

TEST(CoMutex, TryLock) {
  Engine e;
  CoMutex m(e);
  EXPECT_TRUE(m.tryLock());
  EXPECT_FALSE(m.tryLock());
  m.unlock();
  EXPECT_TRUE(m.tryLock());
  m.unlock();
}

TEST(CoMutex, FifoHandOff) {
  Engine e;
  CoMutex m(e);
  std::vector<int> order;
  auto t = [&](int id, Tick arrive, Tick hold) -> Task<> {
    co_await e.delay(arrive);
    co_await m.lock();
    co_await e.delay(hold);
    order.push_back(id);
    m.unlock();
  };
  e.spawn(t(0, 0, 100));
  e.spawn(t(1, 10, 10));
  e.spawn(t(2, 20, 10));
  e.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);  // FIFO: 1 queued before 2
  EXPECT_EQ(order[2], 2);
  EXPECT_EQ(e.now(), 120u);
}

TEST(CoMutex, ScopedGuardReleasesOnScopeExit) {
  Engine e;
  CoMutex m(e);
  auto t = [&]() -> Task<> {
    {
      auto g = co_await m.scoped();
      EXPECT_TRUE(m.locked());
    }
    EXPECT_FALSE(m.locked());
  };
  e.spawn(t());
  e.run();
}

TEST(CoMutex, GuardExplicitRelease) {
  Engine e;
  CoMutex m(e);
  auto t = [&]() -> Task<> {
    auto g = co_await m.scoped();
    g.release();
    EXPECT_FALSE(m.locked());
    // Double release must be harmless.
    g.release();
    EXPECT_FALSE(m.locked());
  };
  e.spawn(t());
  e.run();
}

// The intrusive wait queue: three waiters are handed the lock in the order
// they queued, the queue drains to empty, and it refills for a second round.
TEST(CoMutex, IntrusiveQueueDrainsAndRefills) {
  Engine e;
  CoMutex m(e);
  std::vector<int> order;
  auto holder = [&](Tick arrive) -> Task<> {
    co_await e.delay(arrive);
    co_await m.lock();
    co_await e.delay(100);
    m.unlock();
  };
  auto waiter = [&](int id, Tick arrive) -> Task<> {
    co_await e.delay(arrive);
    co_await m.lock();
    order.push_back(id);
    m.unlock();
  };
  auto probe = [&](Tick at, std::size_t want) -> Task<> {
    co_await e.delay(at);
    EXPECT_EQ(m.waiterCount(), want);
    EXPECT_EQ(m.locked(), want > 0);
    if (want > 0) {
      EXPECT_FALSE(m.tryLock());  // queued waiters go first
    }
  };
  for (const Tick base : {Tick{0}, Tick{1000}}) {
    e.spawn(holder(base));
    e.spawn(waiter(static_cast<int>(base) + 7, base + 10));
    e.spawn(waiter(static_cast<int>(base) + 2, base + 20));
    e.spawn(waiter(static_cast<int>(base) + 9, base + 30));
    e.spawn(probe(base + 50, 3));
  }
  e.spawn(probe(500, 0));  // drained between the rounds
  e.run();
  const std::vector<int> want = {7, 2, 9, 1007, 1002, 1009};
  EXPECT_EQ(order, want);
  EXPECT_EQ(m.waiterCount(), 0u);
  EXPECT_FALSE(m.locked());
}

TEST(CoBarrier, ReleasesAllAtOnce) {
  Engine e;
  CoBarrier b(e, 3);
  std::vector<Tick> times;
  auto t = [&](Tick d) -> Task<> {
    co_await e.delay(d);
    co_await b.arriveAndWait();
    times.push_back(e.now());
  };
  e.spawn(t(10));
  e.spawn(t(20));
  e.spawn(t(30));
  e.run();
  ASSERT_EQ(times.size(), 3u);
  for (Tick tm : times) EXPECT_EQ(tm, 30u);
}

TEST(CoBarrier, IsCyclic) {
  Engine e;
  CoBarrier b(e, 2);
  int rounds_done = 0;
  auto t = [&](Tick step) -> Task<> {
    for (int r = 0; r < 5; ++r) {
      co_await e.delay(step);
      co_await b.arriveAndWait();
    }
    ++rounds_done;
  };
  e.spawn(t(10));
  e.spawn(t(25));
  e.run();
  EXPECT_EQ(rounds_done, 2);
  EXPECT_EQ(b.generation(), 5u);
  EXPECT_EQ(e.now(), 125u);  // slower party dominates every round
}

TEST(Trigger, LatchesAndReleasesWaiters) {
  Engine e;
  Trigger tr(e);
  std::vector<Tick> woke;
  auto waiter = [&]() -> Task<> {
    co_await tr.wait();
    woke.push_back(e.now());
  };
  auto firer = [&]() -> Task<> {
    co_await e.delay(100);
    tr.fire();
  };
  e.spawn(waiter());
  e.spawn(waiter());
  e.spawn(firer());
  e.run();
  ASSERT_EQ(woke.size(), 2u);
  EXPECT_EQ(woke[0], 100u);
  EXPECT_EQ(woke[1], 100u);
  EXPECT_TRUE(tr.fired());
}

TEST(Trigger, WaitAfterFireIsImmediate) {
  Engine e;
  Trigger tr(e);
  tr.fire();
  Tick woke = 999;
  auto waiter = [&]() -> Task<> {
    co_await e.delay(7);
    co_await tr.wait();
    woke = e.now();
  };
  e.spawn(waiter());
  e.run();
  EXPECT_EQ(woke, 7u);
}

TEST(Trigger, ResetRearms) {
  Engine e;
  Trigger tr(e);
  tr.fire();
  tr.reset();
  EXPECT_FALSE(tr.fired());
}

TEST(Signal, PulseWakesOnlyCurrentWaiters) {
  Engine e;
  Signal s(e);
  std::vector<int> woke;
  auto waiter = [&](int id, Tick arrive) -> Task<> {
    co_await e.delay(arrive);
    co_await s.wait();
    woke.push_back(id);
  };
  auto notifier = [&]() -> Task<> {
    co_await e.delay(50);
    s.notifyAll();  // only waiter 0 (arrived at 10) is waiting
    co_await e.delay(100);
    s.notifyAll();  // waiter 1 (arrived at 60)
  };
  e.spawn(waiter(0, 10));
  e.spawn(waiter(1, 60));
  e.spawn(notifier());
  e.run();
  ASSERT_EQ(woke.size(), 2u);
  EXPECT_EQ(woke[0], 0);
  EXPECT_EQ(woke[1], 1);
}

TEST(Signal, NotifyOneWakesOldest) {
  Engine e;
  Signal s(e);
  std::vector<int> woke;
  auto waiter = [&](int id) -> Task<> {
    co_await s.wait();
    woke.push_back(id);
  };
  auto notifier = [&]() -> Task<> {
    co_await e.delay(10);
    EXPECT_TRUE(s.notifyOne());
    co_await e.delay(10);
    EXPECT_TRUE(s.notifyOne());
    co_await e.delay(10);
    EXPECT_FALSE(s.notifyOne());
  };
  e.spawn(waiter(0));
  e.spawn(waiter(1));
  e.spawn(notifier());
  e.run();
  ASSERT_EQ(woke.size(), 2u);
  EXPECT_EQ(woke[0], 0);
  EXPECT_EQ(woke[1], 1);
}

}  // namespace
}  // namespace nwc::sim
