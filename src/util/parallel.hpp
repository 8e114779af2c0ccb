// ParallelExecutor: the one way a grid of independent simulations runs.
//
// Callers enumerate work as indices 0..n-1 (grid coordinates) and collect
// results into pre-sized vectors indexed by those coordinates, so the
// output is byte-for-byte the same at any job count. min(jobs, n) workers
// claim indices from one shared counter; the calling thread is one of
// them, so jobs == 1 is the plain loop, run inline in index order.
//
// Host-side machinery only: simulated time lives in `sim::Engine`
// instances, which are single-threaded and never shared across indices.
// One index = one Machine = one Engine.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>

namespace nwc::util {

/// Resolves a job count: 0 means "auto" and selects
/// std::thread::hardware_concurrency() (minimum 1).
unsigned resolveJobs(unsigned requested);

/// Totals for one forEachIndex call, reported to the observer when it
/// returns. `lifetime_ns` is the call's wall-clock time; multiply by
/// `threads` for total thread-time. `busy_ns` is the summed wall time
/// workers spent inside fn.
struct ParallelStats {
  unsigned threads = 0;
  std::uint64_t lifetime_ns = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t tasks = 0;
};

/// Installs a process-wide observer invoked at the end of every
/// forEachIndex call (after its workers joined, so the stats are final).
/// Pass nullptr to uninstall. Used by the profiler (obs::prof) to report
/// utilization; util must not depend on obs, hence the function pointer.
void setParallelObserver(void (*observer)(const ParallelStats&));

class ParallelExecutor {
 public:
  /// `jobs` workers; 0 selects hardware concurrency.
  explicit ParallelExecutor(unsigned jobs = 0);

  unsigned jobs() const { return jobs_; }

  /// Runs fn(i) for every i in [0, n) on min(jobs(), n) threads, the
  /// caller included; indices are claimed in increasing order. Blocks
  /// until every claimed index has completed. After a call throws, no
  /// further index is claimed, and the exception from the lowest index is
  /// rethrown: every lower index was claimed first, so it is the one a
  /// serial loop would have surfaced.
  void forEachIndex(std::size_t n, const std::function<void(std::size_t)>& fn) const;

 private:
  unsigned jobs_;
};

/// Thread-safe live progress for a batch of runs: counts starts and
/// completions, reports per-run pass/fail and an ETA extrapolated from the
/// throughput so far. One line per completion:
///   [done/total] <what>: ok (eta 42s)
class ProgressMeter {
 public:
  /// `out` may be null (meter counts but prints nothing).
  ProgressMeter(std::size_t total, std::ostream* out);

  /// Records one run entering execution (counted by heartbeat lines).
  void started();

  /// Records one completed run and prints its progress line.
  void completed(const std::string& what, bool ok);

  /// Prints a periodic heartbeat line without consuming a completion:
  ///   [hb done/total] running=N <extra> (eta 42s)
  /// `extra` carries caller context (e.g. process RSS); may be empty.
  void heartbeat(const std::string& extra);

  std::size_t done() const;

 private:
  /// ETA seconds from throughput so far; < 0 when not yet estimable.
  /// Caller must hold mutex_.
  long long etaSecondsLocked() const;

  mutable std::mutex mutex_;
  std::size_t done_ = 0;
  std::size_t running_ = 0;
  const std::size_t total_;
  std::ostream* const out_;
  const std::chrono::steady_clock::time_point start_;
};

}  // namespace nwc::util
