// Central metrics registry: the simulator-wide instrument catalog.
//
// Every component (optical ring, NWCache interface, mesh, buses, disks,
// swap/fault paths, TLBs) publishes named instruments into one registry at
// the end of a run via its `publishMetrics()` method; the registry exports
// the whole catalog as JSON next to the run's other outputs.
// Publication is a snapshot — components keep their cheap private counters
// on the hot path and copy them out once, so the instrumentation costs
// nothing while the simulation runs.
//
// Names are dot-separated paths ("ring.inserts", "disk.d0.seek_mean_pcycles");
// registering the same name twice throws (collision guard: two components
// silently sharing an instrument is always a bug).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace nwc::sim {
class FifoServer;
}

namespace nwc::obs {

enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* toString(InstrumentKind k);

class MetricsRegistry {
 public:
  /// Monotonic event count (faults, inserts, bytes, ...).
  void counter(const std::string& name, std::uint64_t value);

  /// Point-in-time or derived value (rates, means, utilizations).
  void gauge(const std::string& name, double value);

  /// Log2-bucketed latency distribution (bucket i = [2^i, 2^(i+1))).
  void histogram(const std::string& name, const sim::Log2Histogram& h);

  bool has(const std::string& name) const;
  std::size_t size() const { return instruments_.size(); }
  bool empty() const { return instruments_.empty(); }
  void clear() { instruments_.clear(); }

  /// Instrument names in export (lexicographic) order.
  std::vector<std::string> names() const;

  InstrumentKind kindOf(const std::string& name) const;  // throws if absent
  std::uint64_t counterValue(const std::string& name) const;
  double gaugeValue(const std::string& name) const;
  /// Histogram summary: total count and quantile upper bounds.
  struct HistogramSummary {
    std::uint64_t count = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
    std::vector<std::pair<int, std::uint64_t>> buckets;  // (log2 index, count)
  };
  const HistogramSummary& histogramValue(const std::string& name) const;

  /// {"schema":"nwc-metrics-v1","instruments":{...}} — deterministic
  /// (instruments in name order) so equal runs produce identical bytes.
  std::string toJson() const;

  void writeJson(const std::string& path) const;  // throws on I/O failure

 private:
  struct Instrument {
    InstrumentKind kind = InstrumentKind::kCounter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    HistogramSummary hist;
  };

  const Instrument& at(const std::string& name, InstrumentKind want) const;
  Instrument& emplaceNew(const std::string& name);  // throws on collision

  std::map<std::string, Instrument> instruments_;
};

// --- convenience publishers for the simulator's stock stat types ----------

/// `prefix.jobs` / `prefix.busy_ticks` / `prefix.queued_ticks`.
void publish(MetricsRegistry& reg, const std::string& prefix, const sim::FifoServer& s);

/// `prefix.count` plus `prefix.mean` / `prefix.min` / `prefix.max` gauges.
void publish(MetricsRegistry& reg, const std::string& prefix, const sim::Accumulator& a);

/// `prefix.hits` / `prefix.misses` counters plus a `prefix.rate` gauge.
void publish(MetricsRegistry& reg, const std::string& prefix, const sim::RatioCounter& r);

}  // namespace nwc::obs
