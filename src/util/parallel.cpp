#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace nwc::util {

namespace {

std::atomic<void (*)(const ParallelStats&)> g_observer{nullptr};

std::uint64_t nsSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

unsigned resolveJobs(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

void setParallelObserver(void (*observer)(const ParallelStats&)) {
  g_observer.store(observer, std::memory_order_release);
}

ParallelExecutor::ParallelExecutor(unsigned jobs) : jobs_(resolveJobs(jobs)) {}

void ParallelExecutor::forEachIndex(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> tasks{0};
  std::vector<std::exception_ptr> errors(n);
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      const auto w0 = std::chrono::steady_clock::now();
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
        next.store(n, std::memory_order_relaxed);  // claim nothing further
      }
      busy_ns.fetch_add(nsSince(w0), std::memory_order_relaxed);
      tasks.fetch_add(1, std::memory_order_relaxed);
    }
  };

  const std::size_t threads = std::min<std::size_t>(jobs_, n);
  std::vector<std::thread> helpers;
  helpers.reserve(threads - 1);
  while (helpers.size() + 1 < threads) {
    try {
      helpers.emplace_back(worker);
    } catch (const std::system_error&) {
      break;  // the workers already running (the caller at least) finish the job
    }
  }
  worker();
  for (std::thread& h : helpers) h.join();

  if (auto* observer = g_observer.load(std::memory_order_acquire)) {
    ParallelStats s;
    s.threads = static_cast<unsigned>(helpers.size() + 1);
    s.lifetime_ns = nsSince(t0);
    s.busy_ns = busy_ns.load(std::memory_order_relaxed);
    s.tasks = tasks.load(std::memory_order_relaxed);
    observer(s);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

ProgressMeter::ProgressMeter(std::size_t total, std::ostream* out)
    : total_(total), out_(out), start_(std::chrono::steady_clock::now()) {}

void ProgressMeter::started() {
  std::lock_guard<std::mutex> lk(mutex_);
  ++running_;
}

long long ProgressMeter::etaSecondsLocked() const {
  if (done_ == 0 || done_ >= total_) return -1;
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
  const double per_run = static_cast<double>(elapsed) / static_cast<double>(done_);
  return static_cast<long long>(per_run * static_cast<double>(total_ - done_) + 0.5);
}

void ProgressMeter::completed(const std::string& what, bool ok) {
  std::lock_guard<std::mutex> lk(mutex_);
  ++done_;
  if (running_ > 0) --running_;
  if (out_ == nullptr) return;
  *out_ << "[" << done_ << "/" << total_ << "] " << what << ": "
        << (ok ? "ok" : "FAIL");
  if (const long long eta = etaSecondsLocked(); eta >= 0) {
    *out_ << " (eta " << eta << "s)";
  }
  *out_ << "\n";
  out_->flush();
}

void ProgressMeter::heartbeat(const std::string& extra) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (out_ == nullptr) return;
  *out_ << "[hb " << done_ << "/" << total_ << "] running=" << running_;
  if (!extra.empty()) *out_ << " " << extra;
  if (const long long eta = etaSecondsLocked(); eta >= 0) {
    *out_ << " (eta " << eta << "s)";
  }
  *out_ << "\n";
  out_->flush();
}

std::size_t ProgressMeter::done() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return done_;
}

}  // namespace nwc::util
