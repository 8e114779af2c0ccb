// Pluggable write-cache admission policies for the staging backends.
//
// The paper's NWCache (and the DCD's log disk) admit every swap-out
// unconditionally — paper-faithful, and the `always` default here. Later
// hybrid write-cache work showed admission control often matters more than
// capacity: bouncer's sieved write buffer gates admission with a miss
// filter plus a ghost cache, and the Optane "Writes Hurt" study reaches the
// same conclusion for a different medium. This file makes that seam
// pluggable: the ring backend consults the policy before staging a
// swap-out on a cache channel, the DCD consults it before absorbing a
// write batch into the log, and rejected pages take the standard
// NACK/OK disk path instead.
//
// Policies are pure bookkeeping: they draw no random numbers, add no
// simulated events and never touch a timestamp, so the `always` policy is
// byte-identical to the pre-policy machine. Selection and knobs live in
// MachineConfig (`ring_admission=`, `sieve_threshold=`, ...); decisions and
// feeds are counted and published under `policy.*`. docs/POLICIES.md has
// the full algorithm descriptions and tuning guidance.
#pragma once

#include <cstdint>
#include <memory>

#include "machine/config.hpp"
#include "sim/types.hpp"

namespace nwc::obs {
class MetricsRegistry;
}

namespace nwc::machine {

struct Metrics;

/// Admission policy interface. One instance per staging backend (ring,
/// DCD); the shared fabric and the standard/remote backends never ask.
class CachePolicy {
 public:
  virtual ~CachePolicy() = default;
  CachePolicy(const CachePolicy&) = delete;
  CachePolicy& operator=(const CachePolicy&) = delete;

  /// One admission decision: should `page` enter the write cache? Counts
  /// the decision into Metrics (policy_admits / policy_rejects), published
  /// as `policy.admit` / `policy.reject`.
  bool admit(sim::PageId page);

  /// Fault-path feed: `page` faulted; `staged` is true when the write
  /// cache still held it (ring victim read / DCD log hit) — evidence that
  /// admitting it paid off.
  virtual void noteFault(sim::PageId page, bool staged) {
    (void)page;
    (void)staged;
  }

  /// Destage feed: `page` left the write cache toward the platters (ring
  /// drain to the controller cache, DCD log destage).
  virtual void noteDestage(sim::PageId page) { (void)page; }

  AdmissionKind kind() const { return kind_; }
  std::uint64_t admits() const;
  std::uint64_t rejects() const;
  std::uint64_t ghostHits() const;

  /// Registers `policy.admit` / `policy.reject` / `policy.ghost_hit`.
  void publishMetrics(obs::MetricsRegistry& reg) const;

 protected:
  CachePolicy(AdmissionKind kind, Metrics& m) : kind_(kind), m_(m) {}

  virtual bool decide(sim::PageId page) = 0;

  /// The sieve's ghost-hit counter (Metrics::policy_ghost_hits).
  void countGhostHit();

  AdmissionKind kind_;
  Metrics& m_;  // decision counters live in the machine's Metrics
};

/// Builds the policy selected by `cfg.ring_admission`; decisions are
/// counted into `m` so RunSummary carries them.
std::unique_ptr<CachePolicy> makeCachePolicy(const MachineConfig& cfg,
                                             Metrics& m);

}  // namespace nwc::machine
