#include "io/disk_cache.hpp"

#include "obs/registry.hpp"

namespace nwc::io {

DiskCache::DiskCache(int slots) : slots_(static_cast<std::size_t>(slots)) {}

DiskCache::Slot* DiskCache::find(sim::PageId page) {
  for (auto& s : slots_) {
    if (s.state != State::kFree && s.page == page) return &s;
  }
  return nullptr;
}

const DiskCache::Slot* DiskCache::find(sim::PageId page) const {
  return const_cast<DiskCache*>(this)->find(page);
}

bool DiskCache::lookup(sim::PageId page) {
  Slot* s = find(page);
  if (s == nullptr) {
    hits_.miss();
    return false;
  }
  if (s->state == State::kClean) s->stamp = ++tick_;
  hits_.hit();
  return true;
}

bool DiskCache::contains(sim::PageId page) const { return find(page) != nullptr; }

DiskCache::Slot* DiskCache::victimForWrite() {
  Slot* best = nullptr;
  for (auto& s : slots_) {
    if (s.state == State::kFree) return &s;
    if (s.state == State::kClean && (best == nullptr || s.stamp < best->stamp)) best = &s;
  }
  return best;  // LRU clean, or nullptr if all Dirty
}

DiskCache::Slot* DiskCache::victimForPrefetch() {
  // Prefetches may only claim Free slots; they never displace anything
  // useful already buffered.
  for (auto& s : slots_) {
    if (s.state == State::kFree) return &s;
  }
  return nullptr;
}

bool DiskCache::hasRoomForWrite(sim::PageId page) const {
  if (find(page) != nullptr) return true;
  return const_cast<DiskCache*>(this)->victimForWrite() != nullptr;
}

bool DiskCache::insertDirty(sim::PageId page) {
  if (Slot* s = find(page)) {
    s->state = State::kDirty;  // overwrite staged/cached copy with new data
    s->stamp = ++tick_;
    return true;
  }
  Slot* v = victimForWrite();
  if (v == nullptr) return false;  // NACK: cache full of swap-outs
  v->state = State::kDirty;
  v->page = page;
  v->stamp = ++tick_;
  return true;
}

void DiskCache::insertClean(sim::PageId page) {
  if (Slot* s = find(page)) {
    if (s->state == State::kClean) s->stamp = ++tick_;
    return;  // already buffered (possibly Dirty with fresher data)
  }
  Slot* v = victimForPrefetch();
  if (v == nullptr) return;  // dropped: writes have priority
  v->state = State::kClean;
  v->page = page;
  v->stamp = ++tick_;
}

int DiskCache::cleanableSlots() const {
  int n = 0;
  for (const auto& s : slots_) {
    if (s.state == State::kFree) ++n;
  }
  return n;
}

std::optional<sim::PageId> DiskCache::oldestDirty() const {
  const Slot* best = nullptr;
  for (const auto& s : slots_) {
    if (s.state == State::kDirty && (best == nullptr || s.stamp < best->stamp)) best = &s;
  }
  if (best == nullptr) return std::nullopt;
  return best->page;
}

std::vector<sim::PageId> DiskCache::planWriteBatch() const {
  auto anchor = oldestDirty();
  std::vector<sim::PageId> batch;
  if (!anchor.has_value()) return batch;

  // Extend downward then upward over consecutive Dirty pages around the
  // oldest Dirty anchor.
  sim::PageId lo = *anchor;
  while (true) {
    const Slot* s = find(lo - 1);
    if (s == nullptr || s->state != State::kDirty) break;
    --lo;
  }
  sim::PageId hi = *anchor;
  while (true) {
    const Slot* s = find(hi + 1);
    if (s == nullptr || s->state != State::kDirty) break;
    ++hi;
  }
  for (sim::PageId p = lo; p <= hi; ++p) batch.push_back(p);
  return batch;
}

void DiskCache::completeWrite(const std::vector<sim::PageId>& batch) {
  for (sim::PageId p : batch) {
    if (Slot* s = find(p); s != nullptr && s->state == State::kDirty) {
      s->state = State::kClean;
      s->stamp = ++tick_;
    }
  }
}

bool DiskCache::cancelWrite(sim::PageId page) {
  if (Slot* s = find(page); s != nullptr && s->state == State::kDirty) {
    s->state = State::kClean;
    return true;
  }
  return false;
}

bool DiskCache::drop(sim::PageId page) {
  if (Slot* s = find(page)) {
    s->state = State::kFree;
    s->page = sim::kNoPage;
    return true;
  }
  return false;
}

int DiskCache::dirtyCount() const {
  int n = 0;
  for (const auto& s : slots_) n += s.state == State::kDirty ? 1 : 0;
  return n;
}

int DiskCache::freeCount() const {
  int n = 0;
  for (const auto& s : slots_) n += s.state == State::kFree ? 1 : 0;
  return n;
}

void DiskCache::publishMetrics(obs::MetricsRegistry& reg,
                               const std::string& prefix) const {
  obs::publish(reg, prefix + "lookup", hits_);
  reg.gauge(prefix + "slots", slots());
  reg.gauge(prefix + "dirty", dirtyCount());
}

}  // namespace nwc::io
