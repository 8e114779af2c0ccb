// Host-side self-profiler: watches the *simulator*, not the simulated
// machine. Every other observability layer (metrics, timeline, sampler)
// reports simulated behavior; this one answers "where does the host's
// wall-clock time, allocation traffic, and memory go when we run?" inside
// one run (the repository benchmark, perfbench/, times runs end to end).
//
// Design:
//  - RAII `prof::Scope` marks a named phase ("config-parse", "setup",
//    "event-loop", ...). Scopes nest; the nesting forms a phase tree.
//  - Per-thread TLS buffers: scope entry/exit touch only thread-local
//    state plus one short uncontended lock at exit, so the workers of
//    `util::ParallelExecutor` profile concurrently without serializing. Buffers are merged
//    at snapshot()/thread-exit.
//  - Compiled in but disabled by default: a Scope on the disabled path is
//    one relaxed atomic load and performs no allocation. Enabling changes
//    nothing about simulated results — profiling reads host clocks only —
//    so simulated outputs are byte-identical with profiling on or off.
//  - Allocation counters: global operator new is replaced in
//    obs/alloc_count.cpp (malloc + a thread-local counter bump, ~1ns) so
//    each phase reports how many heap allocations happened inside it.
//  - Worker utilization: each util::ParallelExecutor loop reports
//    busy/lifetime/task totals through an observer installed by enable();
//    the report carries worker busy vs idle time as the `pool` section.
//
// Output surfaces (both produced from one snapshot()):
//  - the `nwc-profile-v1` JSON report (reportJson/writeReport), the one
//    file every tool's `--profile=FILE` writes,
//  - `profile.*` instruments in a MetricsRegistry (publishMetrics).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace nwc::obs {
class MetricsRegistry;
}

namespace nwc::obs::prof {

/// Process-wide switch. Off by default; reading it is one relaxed load.
bool enabled();
void enable();
void disable();

/// Drops all recorded data (phase accumulators, pool stats). Keeps the enabled/disabled state. Test support; not meant to be
/// called while scopes are active on other threads.
void reset();

/// enable() plus an atexit hook that writes the report to `path`. Backs
/// every tool's `--profile=` flag; the report goes to that file only, never
/// to the tool's stdout, so simulated outputs stay byte-identical. When the
/// write fails the process exits 2, naming the path on stderr.
void enableWithReportAtExit(const std::string& path);

/// Monotonic host clock in nanoseconds (steady_clock).
std::uint64_t nowNs();

/// RAII phase scope. `name` must have static lifetime (string literal).
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool live_;  // pushed a frame (profiler was enabled at construction)
};

/// Records a manually measured sample at `rel_path` (slash-separated)
/// under the calling thread's *current* scope path — used for phases whose
/// boundaries cannot be expressed as a C++ scope, e.g. the event loop's
/// destage-drain tail measured inside Machine. No-op when disabled.
void addSample(const char* rel_path, std::uint64_t wall_ns);

/// Worker utilization totals, as reported by the util::ParallelExecutor
/// observer at the end of each executor loop (`lifetime_ns` here is
/// thread-summed). Accumulates across calls. No-op when disabled.
void notePool(unsigned threads, std::uint64_t lifetime_ns, std::uint64_t busy_ns,
              std::uint64_t tasks);

/// The calling thread's allocation counters. Counted unconditionally (the
/// operator-new hook is ~1ns), so tests can assert the disabled profiling
/// path performs zero allocations.
std::uint64_t threadAllocCount();
std::uint64_t threadAllocBytes();

/// One node of the merged phase tree. Children are keyed by phase name in
/// lexicographic order, so every export is deterministic.
struct Node {
  std::uint64_t wall_ns = 0;
  std::uint64_t count = 0;        // scope entries
  std::uint64_t alloc_count = 0;  // heap allocations inside the phase
  std::uint64_t alloc_bytes = 0;
  std::map<std::string, Node> children;
};

struct Report {
  Node root;  // root.children are the top-level phases; root totals are sums
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t current_rss_bytes = 0;
  unsigned pool_threads = 0;  // max threads over reporting executor loops
  std::uint64_t pool_lifetime_ns = 0;  // sum of per-call thread-lifetime ns
  std::uint64_t pool_busy_ns = 0;
  std::uint64_t pool_tasks = 0;

  std::uint64_t poolIdleNs() const {
    return pool_lifetime_ns > pool_busy_ns ? pool_lifetime_ns - pool_busy_ns : 0;
  }
  /// busy / (busy + idle) across all reporting calls; 0 when none ran.
  double poolUtilization() const;
};

/// Merges every thread's buffer (live and exited) into one tree. Safe to
/// call while other threads are between scopes; an active (unfinished)
/// scope is not included until it closes.
Report snapshot();

/// Exports the report as `profile.*` instruments:
///   profile.phase.<path>.wall_ms / .count / .allocs / .alloc_bytes
///   (path components are dot-joined with '-' mapped to '_'), plus
///   profile.peak_rss_bytes, profile.pool.threads, profile.pool.busy_ms,
///   profile.pool.idle_ms, profile.pool.utilization, profile.pool.tasks.
void publishMetrics(const Report& r, MetricsRegistry& reg);

/// {"schema":"nwc-profile-v1",...} — the full report as JSON.
std::string reportJson(const Report& r);

/// Writes reportJson(snapshot()) to `path`.
void writeReport(const std::string& path);

}  // namespace nwc::obs::prof
