#include "machine/backends/cache_policy.hpp"

#include "machine/metrics.hpp"
#include "obs/registry.hpp"

namespace nwc::machine {

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

}  // namespace

SieveAdmission::SieveAdmission(const MachineConfig& cfg, Metrics& m)
    : m_(m),
      threshold_(cfg.sieve_threshold),
      ghost_(cfg.policy_ghost_pages),
      filter_(cfg.policy_ghost_pages) {}

bool SieveAdmission::admit(sim::PageId page) {
  if (promoted_.contains(page)) return true;
  // Miss filter: saturating per-page counter in a bounded recency table.
  const sim::PageId evicted = touchBounded(filter_, page);
  if (evicted != sim::kNoPage) misses_.erase(evicted);
  const int count = ++misses_[page];
  if (count < threshold_) return false;
  misses_[page] = threshold_;  // saturate
  return true;
}

void SieveAdmission::noteFault(sim::PageId page, bool staged) {
  if (staged) return;  // served from the write cache: nothing to learn
  if (ghost_.contains(page)) {
    // The write cache destaged a page that was still hot: promote it so
    // its next swap-out is admitted without sieving.
    ++m_.policy_ghost_hits;
    ghost_.erase(page);
    promoted_.insert(page);
  }
}

void SieveAdmission::noteDestage(sim::PageId page) {
  if (promoted_.contains(page)) return;  // promotions are sticky
  touchBounded(ghost_, page);
}

bool admitToWriteCache(SieveAdmission* sieve, sim::PageId page, Metrics& m) {
  const bool yes = sieve == nullptr || sieve->admit(page);
  ++(yes ? m.policy_admits : m.policy_rejects);
  return yes;
}

void publishPolicyMetrics(obs::MetricsRegistry& reg, const Metrics& m) {
  reg.counter("policy.admit", m.policy_admits);
  reg.counter("policy.reject", m.policy_rejects);
  reg.counter("policy.ghost_hit", m.policy_ghost_hits);
}

}  // namespace nwc::machine
