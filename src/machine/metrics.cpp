#include "machine/metrics.hpp"

#include <algorithm>

namespace nwc::machine {

sim::Tick Metrics::totalNoFree() const {
  sim::Tick t = 0;
  for (const auto& c : cpu_) t += c.nofree;
  return t;
}

sim::Tick Metrics::totalTransit() const {
  sim::Tick t = 0;
  for (const auto& c : cpu_) t += c.transit;
  return t;
}

sim::Tick Metrics::totalFault() const {
  sim::Tick t = 0;
  for (const auto& c : cpu_) t += c.fault;
  return t;
}

sim::Tick Metrics::totalTlb() const {
  sim::Tick t = 0;
  for (const auto& c : cpu_) t += c.tlb;
  return t;
}

sim::Tick Metrics::totalOther() const {
  sim::Tick t = 0;
  for (const auto& c : cpu_) t += c.other();
  return t;
}

sim::Tick Metrics::executionTime() const {
  sim::Tick t = 0;
  for (const auto& c : cpu_) t = std::max(t, c.finish);
  return t;
}

std::uint64_t Metrics::totalAccesses() const {
  std::uint64_t n = 0;
  for (const auto& c : cpu_) n += c.accesses;
  return n;
}

}  // namespace nwc::machine
