// Coroutine synchronization primitives: mutex, semaphore, barrier.
//
// All wake-ups are scheduled at the current tick through the engine
// calendar, so wake order is FIFO and deterministic.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>

#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace nwc::sim {

/// FIFO mutex. Ownership is handed directly to the oldest waiter on unlock.
class CoMutex {
 public:
  explicit CoMutex(Engine& eng) : eng_(&eng) {}

  struct LockAwaiter {
    CoMutex& m;
    bool await_ready() const {
      if (!m.locked_) {
        m.locked_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      m.waiters_.push_back(h);
    }
    void await_resume() const {}
  };

  /// `co_await mtx.lock();` ... `mtx.unlock();`
  LockAwaiter lock() { return LockAwaiter{*this}; }

  /// Non-blocking acquire; returns true on success.
  bool tryLock() {
    if (locked_) return false;
    locked_ = true;
    return true;
  }

  void unlock();

  bool locked() const { return locked_; }
  std::size_t waiterCount() const { return waiters_.size(); }

  /// RAII guard: `auto g = co_await mtx.scoped();`
  class [[nodiscard]] Guard {
   public:
    explicit Guard(CoMutex* m) : m_(m) {}
    Guard(Guard&& o) noexcept : m_(std::exchange(o.m_, nullptr)) {}
    Guard& operator=(Guard&& o) noexcept {
      release();
      m_ = std::exchange(o.m_, nullptr);
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { release(); }
    void release() {
      if (m_) {
        m_->unlock();
        m_ = nullptr;
      }
    }

   private:
    CoMutex* m_;
  };

  struct ScopedAwaiter {
    CoMutex& m;
    LockAwaiter inner{m};
    bool await_ready() { return inner.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { inner.await_suspend(h); }
    Guard await_resume() { return Guard{&m}; }
  };

  ScopedAwaiter scoped() { return ScopedAwaiter{*this}; }

 private:
  friend struct LockAwaiter;
  Engine* eng_;
  std::deque<std::coroutine_handle<>> waiters_;
  bool locked_ = false;
};

/// Counting semaphore with FIFO grant order.
class CoSemaphore {
 public:
  CoSemaphore(Engine& eng, std::int64_t initial) : eng_(&eng), count_(initial) {}

  struct AcquireAwaiter {
    CoSemaphore& s;
    bool await_ready() const {
      if (s.count_ > 0) {
        --s.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      s.waiters_.push_back(h);
    }
    void await_resume() const {}
  };

  AcquireAwaiter acquire() { return AcquireAwaiter{*this}; }
  void release(std::int64_t n = 1);

  std::int64_t available() const { return count_; }
  std::size_t waiterCount() const { return waiters_.size(); }

 private:
  friend struct AcquireAwaiter;
  Engine* eng_;
  std::int64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Cyclic barrier for `n` parties. The last arriving party releases all.
class CoBarrier {
 public:
  CoBarrier(Engine& eng, int parties) : eng_(&eng), parties_(parties) {}

  struct Awaiter {
    CoBarrier& b;
    bool await_ready() const {
      if (b.arrived_ + 1 == b.parties_) {
        b.releaseAll();
        return true;  // last arrival never suspends
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ++b.arrived_;
      b.waiters_.push_back(h);
    }
    void await_resume() const {}
  };

  /// `co_await barrier.arriveAndWait();`
  Awaiter arriveAndWait() { return Awaiter{*this}; }

  int parties() const { return parties_; }
  int arrived() const { return arrived_; }
  std::uint64_t generation() const { return generation_; }

 private:
  friend struct Awaiter;
  void releaseAll();

  Engine* eng_;
  int parties_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace nwc::sim
