// Work-stealing thread pool for running independent simulations in
// parallel. Each worker owns a deque: it pops its own work from the front
// (submission order) and steals from the back of its siblings when idle,
// so large batches balance across cores without a single contended queue.
//
// The pool is deliberately host-side machinery: simulated time lives in
// `sim::Engine` instances, which are single-threaded and must never be
// shared across pool tasks. One task = one Machine = one Engine.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace nwc::util {

/// Lifetime totals for one pool, reported to the observer when the pool is
/// destroyed. `lifetime_ns` is the pool's wall-clock lifetime (construction
/// to destruction); multiply by `threads` for total thread-time. `busy_ns`
/// is the summed wall time workers spent inside tasks.
struct ThreadPoolStats {
  unsigned threads = 0;
  std::uint64_t lifetime_ns = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
};

/// Installs a process-wide observer invoked from every ThreadPool
/// destructor (after workers joined, so the stats are final). Pass nullptr
/// to uninstall. Used by the profiler (obs::prof) to report pool
/// utilization; util must not depend on obs, hence the function pointer.
void setThreadPoolObserver(void (*observer)(const ThreadPoolStats&));

class ThreadPool {
 public:
  /// Starts `threads` workers; 0 selects std::thread::hardware_concurrency()
  /// (minimum 1).
  explicit ThreadPool(unsigned threads = 0);

  /// Drains: blocks until every submitted task has run, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned threadCount() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues `fn` for execution. The future resolves when the task
  /// finishes and carries any exception it threw. Submitting from inside a
  /// pool task is allowed; submitting after destruction has begun is not.
  std::future<void> submit(std::function<void()> fn);

  /// Tasks submitted but not yet finished.
  std::size_t pending() const { return pending_.load(std::memory_order_acquire); }

  /// Totals so far (busy_ns/tasks/steals are live; lifetime_ns is
  /// construction-to-now). The destructor reports the final values to the
  /// observer installed via setThreadPoolObserver().
  ThreadPoolStats stats() const;

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::packaged_task<void()>> tasks;
  };

  void workerLoop(std::size_t self);
  bool runOneTask(std::size_t self);  // own-front first, then steal siblings' back

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::atomic<std::size_t> pending_{0};   // queued + running
  std::atomic<std::size_t> queued_{0};    // queued only (wake predicate)
  std::atomic<std::uint64_t> next_queue_{0};
  std::atomic<bool> stopping_{false};
  std::chrono::steady_clock::time_point created_;
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> steals_{0};
};

}  // namespace nwc::util
