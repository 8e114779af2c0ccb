#include "sim/engine.hpp"

#include <algorithm>

namespace nwc::sim {

Engine::~Engine() {
  // Drop pending resumptions first; Task destructors free the frames.
  cal_.clear();
}

void Engine::spawn(Task<> task) {
  if (!task.valid()) return;
  scheduleAt(now_, task.handle());
  spawned_.push_back(std::move(task));
}

Tick Engine::run() {
  stop_requested_ = false;
  return runLoop(kNoCap);
}

Tick Engine::runUntil(Tick t) {
  stop_requested_ = false;
  runLoop(t);
  now_ = std::max(now_, t);
  return now_;
}

Tick Engine::runLoop(Tick cap) {
  std::uint64_t since_reap = 0;
  while (!stop_requested_ && !cal_.empty()) {
    if (cap != kNoCap && cal_.peek().t > cap) break;
    const CalEntry e = cal_.pop();
    now_ = e.t;
    ++events_processed_;
    e.h.resume();
    if (++since_reap >= 4096) {
      since_reap = 0;
      reapDone();
    }
  }
  reapDone();
  return now_;
}

void Engine::reapDone() {
  std::erase_if(spawned_, [](const Task<>& t) { return t.done(); });
}

bool Engine::allSpawnedDone() const {
  return std::all_of(spawned_.begin(), spawned_.end(),
                     [](const Task<>& t) { return t.done(); });
}

}  // namespace nwc::sim
