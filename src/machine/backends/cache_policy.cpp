#include "machine/backends/cache_policy.hpp"

#include <unordered_map>
#include <unordered_set>

#include "machine/metrics.hpp"
#include "obs/registry.hpp"
#include "sim/page_lru.hpp"

namespace nwc::machine {

bool CachePolicy::admit(sim::PageId page) {
  const bool yes = decide(page);
  ++(yes ? m_.policy_admits : m_.policy_rejects);
  return yes;
}

std::uint64_t CachePolicy::admits() const { return m_.policy_admits; }
std::uint64_t CachePolicy::rejects() const { return m_.policy_rejects; }
std::uint64_t CachePolicy::ghostHits() const { return m_.policy_ghost_hits; }

void CachePolicy::countGhostHit() { ++m_.policy_ghost_hits; }

void CachePolicy::publishMetrics(obs::MetricsRegistry& reg) const {
  reg.counter("policy.admit", m_.policy_admits);
  reg.counter("policy.reject", m_.policy_rejects);
  reg.counter("policy.ghost_hit", m_.policy_ghost_hits);
}

namespace {

/// Refreshes `page` in `lru`, or inserts it, first evicting the least
/// recently touched page when full. Returns the evicted page, if any.
sim::PageId touchBounded(sim::PageLruList& lru, sim::PageId page) {
  if (lru.touch(page)) return sim::kNoPage;
  sim::PageId evicted = sim::kNoPage;
  if (lru.size() == lru.capacity()) {
    evicted = lru.lru();
    lru.erase(evicted);
  }
  lru.pushMru(page);
  return evicted;
}

/// Paper-faithful baseline: every swap-out enters the write cache. Pure
/// counting — a machine running `always` is byte-identical to one with no
/// policy seam at all.
class AlwaysAdmit final : public CachePolicy {
 public:
  explicit AlwaysAdmit(Metrics& m) : CachePolicy(AdmissionKind::kAlways, m) {}

 private:
  bool decide(sim::PageId) override { return true; }
};

/// Bouncer-style sieve: a miss filter plus a ghost cache guide admission.
/// First-time pages are sieved out — each rejection bumps a bounded
/// saturating miss counter, and a page is admitted once it has been
/// rejected `sieve_threshold` times (a repeat offender worth caching).
/// The ghost cache remembers recently destaged pages; a fault on a ghost
/// entry proves the cache evicted something still hot, so the next
/// admission decision for a ghost page succeeds immediately (and counts a
/// `policy.ghost_hit`). See docs/POLICIES.md for the state machine.
class SieveAdmit final : public CachePolicy {
 public:
  SieveAdmit(const MachineConfig& cfg, Metrics& m)
      : CachePolicy(AdmissionKind::kSieve, m),
        threshold_(cfg.sieve_threshold),
        ghost_(cfg.policy_ghost_pages),
        filter_(cfg.policy_ghost_pages) {}

  void noteFault(sim::PageId page, bool staged) override {
    if (staged) return;  // served from the write cache: nothing to learn
    if (ghost_.contains(page)) {
      // The write cache destaged a page that was still hot: promote it so
      // its next swap-out is admitted without sieving.
      countGhostHit();
      ghost_.erase(page);
      promoted_.insert(page);
    }
  }

  void noteDestage(sim::PageId page) override {
    if (promoted_.contains(page)) return;  // promotions are sticky
    touchBounded(ghost_, page);
  }

 private:
  bool decide(sim::PageId page) override {
    if (promoted_.contains(page)) return true;
    // Miss filter: saturating per-page counter in a bounded recency table.
    const sim::PageId evicted = touchBounded(filter_, page);
    if (evicted != sim::kNoPage) misses_.erase(evicted);
    const int count = ++misses_[page];
    if (count < threshold_) return false;
    misses_[page] = threshold_;  // saturate
    return true;
  }

  int threshold_;
  sim::PageLruList ghost_;   // recently destaged pages (admission evidence)
  sim::PageLruList filter_;  // bounds the miss table to recent pages
  std::unordered_map<sim::PageId, int> misses_;
  // Pages promoted by a ghost hit: admitted unconditionally from then on.
  std::unordered_set<sim::PageId> promoted_;
};

}  // namespace

std::unique_ptr<CachePolicy> makeCachePolicy(const MachineConfig& cfg,
                                             Metrics& m) {
  switch (cfg.ring_admission) {
    case AdmissionKind::kSieve: return std::make_unique<SieveAdmit>(cfg, m);
    case AdmissionKind::kAlways: break;
  }
  return std::make_unique<AlwaysAdmit>(m);
}

}  // namespace nwc::machine
