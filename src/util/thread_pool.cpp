#include "util/thread_pool.hpp"

namespace nwc::util {

namespace {

unsigned clampThreads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

std::atomic<void (*)(const ThreadPoolStats&)> g_pool_observer{nullptr};

}  // namespace

void setThreadPoolObserver(void (*observer)(const ThreadPoolStats&)) {
  g_pool_observer.store(observer, std::memory_order_release);
}

ThreadPool::ThreadPool(unsigned threads)
    : created_(std::chrono::steady_clock::now()) {
  const unsigned n = clampThreads(threads);
  queues_.reserve(n);
  for (unsigned i = 0; i < n; ++i) queues_.push_back(std::make_unique<Queue>());
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Hold the idle mutex so no worker can check the predicate and block
    // between the store and the notify.
    std::lock_guard<std::mutex> lk(idle_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  idle_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  if (auto* observer = g_pool_observer.load(std::memory_order_acquire)) {
    observer(stats());
  }
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats s;
  s.threads = static_cast<unsigned>(workers_.size());
  s.lifetime_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - created_)
          .count());
  s.busy_ns = busy_ns_.load(std::memory_order_relaxed);
  s.tasks = tasks_run_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  return s;
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> fut = task.get_future();
  Queue& q = *queues_[next_queue_.fetch_add(1, std::memory_order_relaxed) %
                      queues_.size()];
  {
    std::lock_guard<std::mutex> lk(q.mutex);
    q.tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  {
    // Same lost-wakeup guard as the destructor: pair the counter update
    // with the cv mutex before notifying.
    std::lock_guard<std::mutex> lk(idle_mutex_);
    queued_.fetch_add(1, std::memory_order_release);
  }
  idle_cv_.notify_one();
  return fut;
}

bool ThreadPool::runOneTask(std::size_t self) {
  std::packaged_task<void()> task;
  // Own queue first, oldest submission first.
  {
    Queue& q = *queues_[self];
    std::lock_guard<std::mutex> lk(q.mutex);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
    }
  }
  // Steal the newest (back) entry from a sibling: the back is the work the
  // owner will reach last, which minimizes contention on its front.
  if (!task.valid()) {
    for (std::size_t off = 1; off < queues_.size() && !task.valid(); ++off) {
      Queue& q = *queues_[(self + off) % queues_.size()];
      std::lock_guard<std::mutex> lk(q.mutex);
      if (!q.tasks.empty()) {
        task = std::move(q.tasks.back());
        q.tasks.pop_back();
        steals_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (!task.valid()) return false;
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  const auto t0 = std::chrono::steady_clock::now();
  task();  // packaged_task captures any exception into the future
  busy_ns_.fetch_add(static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count()),
                     std::memory_order_relaxed);
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

void ThreadPool::workerLoop(std::size_t self) {
  for (;;) {
    if (runOneTask(self)) continue;
    std::unique_lock<std::mutex> lk(idle_mutex_);
    idle_cv_.wait(lk, [this] {
      return stopping_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stopping_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

}  // namespace nwc::util
