#include "sim/sync.hpp"

namespace nwc::sim {

void CoMutex::unlock() {
  if (waiters_.empty()) {
    locked_ = false;
    return;
  }
  // Hand the lock to the oldest waiter; `locked_` stays true.
  const std::coroutine_handle<> h = waiters_.front();
  waiters_.pop_front();
  eng_->scheduleAt(eng_->now(), h);
}

void CoSemaphore::release(std::int64_t n) {
  while (n > 0 && !waiters_.empty()) {
    const std::coroutine_handle<> h = waiters_.front();
    waiters_.pop_front();
    eng_->scheduleAt(eng_->now(), h);
    --n;
  }
  count_ += n;
}

void CoBarrier::releaseAll() {
  for (const std::coroutine_handle<> h : waiters_) eng_->scheduleAt(eng_->now(), h);
  waiters_.clear();
  arrived_ = 0;
  ++generation_;
}

}  // namespace nwc::sim
