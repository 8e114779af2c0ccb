// Write-cache admission for the staging backends.
//
// The paper's NWCache (and the DCD's log disk) admit every swap-out
// unconditionally — paper-faithful, and the `always` default here. Later
// hybrid write-cache work showed admission control often matters more than
// capacity: bouncer's sieved write buffer gates admission with a miss
// filter plus a ghost cache, and the Optane "Writes Hurt" study reaches the
// same conclusion for a different medium. The ring backend asks before
// staging a swap-out on a cache channel, the DCD before absorbing a write
// batch into the log, and rejected pages take the standard NACK/OK disk
// path instead. Each holds a SieveAdmission only under
// `ring_admission=sieve`; without one it admits everything.
//
// Admission is pure bookkeeping: it draws no random numbers, adds no
// simulated events and never touches a timestamp, so the `always` machine
// is byte-identical to one with no admission gate at all. Selection and
// knobs live in MachineConfig (`ring_admission=`, `sieve_threshold=`, ...);
// decisions and feeds are counted and published under `policy.*`.
// docs/POLICIES.md has the algorithm and tuning guidance.
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "machine/config.hpp"
#include "sim/page_lru.hpp"
#include "sim/types.hpp"

namespace nwc::obs {
class MetricsRegistry;
}

namespace nwc::machine {

struct Metrics;

/// Bouncer-style sieve: a miss filter plus a ghost cache guide admission.
/// First-time pages are sieved out — each rejection bumps a bounded
/// saturating miss counter, and a page is admitted once it has been
/// rejected `sieve_threshold` times (a repeat offender worth caching).
/// The ghost cache remembers recently destaged pages; a fault on a ghost
/// entry proves the cache evicted something still hot, so the next
/// admission decision for a ghost page succeeds immediately (and counts a
/// `policy.ghost_hit`). See docs/POLICIES.md for the state machine.
class SieveAdmission {
 public:
  SieveAdmission(const MachineConfig& cfg, Metrics& m);

  /// One admission decision: should `page` enter the write cache? The
  /// caller counts it (admitToWriteCache).
  bool admit(sim::PageId page);

  /// Fault-path feed: `page` faulted; `staged` is true when the write
  /// cache still held it (ring victim read / DCD log hit) — evidence that
  /// admitting it paid off.
  void noteFault(sim::PageId page, bool staged);

  /// Destage feed: `page` left the write cache toward the platters (ring
  /// drain to the controller cache, DCD log destage).
  void noteDestage(sim::PageId page);

 private:
  Metrics& m_;  // policy_ghost_hits
  int threshold_;
  sim::PageLruList ghost_;   // recently destaged pages (admission evidence)
  sim::PageLruList filter_;  // bounds the miss table to recent pages
  std::unordered_map<sim::PageId, int> misses_;
  // Pages promoted by a ghost hit: admitted unconditionally from then on.
  std::unordered_set<sim::PageId> promoted_;
};

/// A staging backend's admission decision for `page`: `sieve`'s when there
/// is one, else yes (`ring_admission=always`). Counts it into
/// Metrics::policy_admits / policy_rejects.
bool admitToWriteCache(SieveAdmission* sieve, sim::PageId page, Metrics& m);

/// Registers `policy.admit` / `policy.reject` / `policy.ghost_hit`.
void publishPolicyMetrics(obs::MetricsRegistry& reg, const Metrics& m);

}  // namespace nwc::machine
