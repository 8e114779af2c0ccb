// Discrete-event simulation engine.
//
// The engine keeps a calendar of (tick, sequence, coroutine handle)
// entries; equal-time events fire in schedule order, which makes every run
// deterministic for a given seed. All simulated processes are coroutines
// (`Task<>`); root processes are registered with `spawn()` and owned by the
// engine.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/calendar.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"

namespace nwc::sim {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time in pcycles.
  Tick now() const { return now_; }

  /// Schedules `h` to resume at absolute time `t` (clamped to `now()`;
  /// clamps are counted — see clampedSchedules()).
  void scheduleAt(Tick t, std::coroutine_handle<> h) {
    if (t < now_) {
      t = now_;
      ++clamped_;
    }
    cal_.push(t, seq_++, h);
  }

  /// Schedules `h` to resume `dt` pcycles from now.
  void scheduleIn(Tick dt, std::coroutine_handle<> h) { scheduleAt(now_ + dt, h); }

  /// Registers a detached root process and schedules its start at `now()`.
  void spawn(Task<> task);

  /// Runs until the calendar drains or `stop()` is called.
  /// Returns the final simulated time.
  Tick run();

  /// Runs until simulated time reaches `t` (events at exactly `t` fire).
  Tick runUntil(Tick t);

  /// Requests that `run()` return after the current event.
  void stop() { stop_requested_ = true; }

  /// Number of events processed so far.
  std::uint64_t eventsProcessed() const { return events_processed_; }

  /// True if all spawned root processes have finished.
  bool allSpawnedDone() const;

  /// Number of calendar entries currently pending.
  std::size_t pendingEvents() const { return cal_.size(); }

  /// scheduleAt calls whose tick was silently clamped up to now() —
  /// surfaced as the `sim.schedule_clamped` metric.
  std::uint64_t clampedSchedules() const { return clamped_; }

  // --- awaitables -----------------------------------------------------

  struct DelayAwaiter {
    Engine& eng;
    Tick at;
    bool await_ready() const { return at <= eng.now(); }
    void await_suspend(std::coroutine_handle<> h) const { eng.scheduleAt(at, h); }
    void await_resume() const {}
  };

  /// `co_await eng.delay(dt)` — suspend for `dt` pcycles.
  DelayAwaiter delay(Tick dt) { return DelayAwaiter{*this, now() + dt}; }

  /// `co_await eng.waitUntil(t)` — suspend until absolute time `t`
  /// (ready immediately if `t <= now()`).
  DelayAwaiter waitUntil(Tick t) { return DelayAwaiter{*this, t}; }

 private:
  static constexpr Tick kNoCap = ~Tick{0};

  void reapDone();  // free finished detached tasks
  Tick runLoop(Tick cap);

  CalendarQueue cal_;
  std::vector<Task<>> spawned_;
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t clamped_ = 0;
  bool stop_requested_ = false;
};

}  // namespace nwc::sim
