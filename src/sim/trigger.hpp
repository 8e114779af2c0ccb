// One-shot and pulse wake-up primitives.
#pragma once

#include <coroutine>
#include <vector>

#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace nwc::sim {

/// Latched one-shot event. Waiters suspend until `fire()`; waits after the
/// trigger has fired complete immediately. `reset()` re-arms it.
class Trigger {
 public:
  explicit Trigger(Engine& eng) : eng_(&eng) {}

  /// Fires the trigger: all current waiters are scheduled at `now()`.
  void fire();

  bool fired() const { return fired_; }
  void reset() { fired_ = false; }
  std::size_t waiterCount() const { return waiters_.size(); }

  struct Awaiter {
    Trigger& t;
    bool await_ready() const { return t.fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      t.waiters_.push_back(h);
    }
    void await_resume() const {}
  };

  /// `co_await trigger.wait()`.
  Awaiter wait() { return Awaiter{*this}; }

 private:
  friend struct Awaiter;
  Engine* eng_;
  std::vector<std::coroutine_handle<>> waiters_;
  bool fired_ = false;
};

/// Pulse signal: `notifyAll()` wakes the waiters present at that instant and
/// does not latch. Later waiters block until the next notify.
class Signal {
 public:
  explicit Signal(Engine& eng) : eng_(&eng) {}

  /// Wakes every current waiter (scheduled at `now()`).
  void notifyAll();

  /// Wakes the oldest waiter, if any. Returns true if one was woken.
  bool notifyOne();

  std::size_t waiterCount() const { return waiters_.size(); }

  struct Awaiter {
    Signal& s;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      s.waiters_.push_back(h);
    }
    void await_resume() const {}
  };

  /// `co_await signal.wait()` — always suspends until the next notify.
  Awaiter wait() { return Awaiter{*this}; }

 private:
  Engine* eng_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace nwc::sim
