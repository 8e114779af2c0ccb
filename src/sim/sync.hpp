// Coroutine synchronization primitives: mutex and barrier.
//
// All wake-ups are scheduled at the current tick through the engine
// calendar, so wake order is FIFO and deterministic.
#pragma once

#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace nwc::sim {

/// FIFO mutex. Ownership is handed directly to the oldest waiter on unlock.
///
/// The wait queue is intrusive: each suspended LockAwaiter, which lives in
/// its coroutine's frame until it resumes, is a node of a singly linked
/// list. The mutex never allocates and is 32 bytes, which matters because
/// every page-table entry holds one.
class CoMutex {
 public:
  explicit CoMutex(Engine& eng) : eng_(&eng) {}

  struct LockAwaiter {
    CoMutex& m;
    LockAwaiter* next = nullptr;
    std::coroutine_handle<> h{};
    bool await_ready() const {
      if (!m.locked_) {
        m.locked_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> handle) {
      h = handle;
      if (m.tail_ != nullptr) {
        m.tail_->next = this;
      } else {
        m.head_ = this;
      }
      m.tail_ = this;
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

  /// Hands the lock to the oldest waiter (`locked_` stays true), or frees it.
  void unlock() {
    LockAwaiter* const w = head_;
    if (w == nullptr) {
      locked_ = false;
      return;
    }
    head_ = w->next;
    if (head_ == nullptr) tail_ = nullptr;
    eng_->scheduleAt(eng_->now(), w->h);
  }

  bool locked() const { return locked_; }
  /// O(waiters): walks the queue.
  std::size_t waiterCount() const {
    std::size_t n = 0;
    for (const LockAwaiter* w = head_; w != nullptr; w = w->next) ++n;
    return n;
  }

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
  LockAwaiter* head_ = nullptr;  // oldest waiter
  LockAwaiter* tail_ = nullptr;  // newest waiter
  bool locked_ = false;
};

/// Cyclic barrier for `n` parties. The last arriving party releases all.
class CoBarrier {
 public:
  /// The waiter list is sized once here (the last arrival never waits), so
  /// a barrier allocates at construction and never inside the run.
  CoBarrier(Engine& eng, int parties) : eng_(&eng), parties_(parties) {
    waiters_.reserve(static_cast<std::size_t>(parties > 1 ? parties - 1 : 0));
  }

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
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace nwc::sim
