#include "sim/engine.hpp"

#include <algorithm>

namespace nwc::sim {

// Defined here, not defaulted in the class, so that value-initialization
// (`std::make_unique<Engine>()`) does not zero the calendar's 32 KB of slot
// heads and tails first: the calendar never reads a slot it has not filled.
Engine::Engine() = default;

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
  inline_cap_ = stop_requested_ ? 0 : cap;
  while (!stop_requested_ && !cal_.empty()) {
    if (cal_.nextTick() > cap) break;
    const CalEntry e = cal_.pop();
    now_ = e.t;
    ++events_processed_;
    e.h.resume();
    if (++since_reap >= 4096) {
      since_reap = 0;
      reapDone();
    }
  }
  inline_cap_ = 0;
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
