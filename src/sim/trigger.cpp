#include "sim/trigger.hpp"

namespace nwc::sim {

void Trigger::fire() {
  fired_ = true;
  for (const std::coroutine_handle<> h : waiters_) eng_->scheduleAt(eng_->now(), h);
  waiters_.clear();
}

void Signal::notifyAll() {
  for (const std::coroutine_handle<> h : waiters_) eng_->scheduleAt(eng_->now(), h);
  waiters_.clear();
}

bool Signal::notifyOne() {
  if (waiters_.empty()) return false;
  const std::coroutine_handle<> h = waiters_.front();
  waiters_.erase(waiters_.begin());
  eng_->scheduleAt(eng_->now(), h);
  return true;
}

}  // namespace nwc::sim
