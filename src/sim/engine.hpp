// Discrete-event simulation engine.
//
// The engine keeps a calendar of (tick, sequence, coroutine handle)
// entries; equal-time events fire in schedule order, which makes every run
// deterministic for a given seed. All simulated processes are coroutines
// (`Task<>`); root processes are registered with `spawn()` and owned by the
// engine. Only runLoop() resumes a scheduled coroutine.
//
// Inline wake-up: a delay whose target tick is strictly before every
// pending event (and within the runUntil cap, with no stop() requested)
// would be popped and resumed next anyway, so the awaiting coroutine goes
// on without suspending. The clock, the sequence counter and
// eventsProcessed() advance exactly as the calendar round trip would have
// advanced them.
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
  Engine();
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
  void stop() {
    stop_requested_ = true;
    inline_cap_ = 0;
  }

  /// Number of events processed so far, inline wake-ups included.
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
    bool await_ready() const { return at <= eng.now() || eng.wakeInline(at); }
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

  /// Advances the clock to `at` as if its event had been popped, when
  /// runLoop() would resume the caller next. Pre: at > now().
  bool wakeInline(Tick at) {
    if (at > inline_cap_ || at >= cal_.nextTick()) return false;
    now_ = at;
    ++seq_;
    ++events_processed_;
    return true;
  }

  CalendarQueue cal_;
  std::vector<Task<>> spawned_;
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t clamped_ = 0;
  bool stop_requested_ = false;
  // Latest tick an inline wake-up may reach: the runUntil cap inside
  // runLoop(), 0 outside it or once stop() is requested (every wake-up
  // target is past now() >= 0, so 0 disables them).
  Tick inline_cap_ = 0;
};

}  // namespace nwc::sim
