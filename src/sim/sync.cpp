#include "sim/sync.hpp"

namespace nwc::sim {

void CoBarrier::releaseAll() {
  for (const std::coroutine_handle<> h : waiters_) eng_->scheduleAt(eng_->now(), h);
  waiters_.clear();
  arrived_ = 0;
  ++generation_;
}

}  // namespace nwc::sim
