#include "obs/registry.hpp"

#include <stdexcept>

#include "sim/fifo_server.hpp"
#include "util/file.hpp"
#include "util/json.hpp"

namespace nwc::obs {

const char* toString(InstrumentKind k) {
  switch (k) {
    case InstrumentKind::kCounter: return "counter";
    case InstrumentKind::kGauge: return "gauge";
    case InstrumentKind::kHistogram: return "histogram";
  }
  return "?";
}

MetricsRegistry::Instrument& MetricsRegistry::emplaceNew(const std::string& name) {
  if (name.empty()) throw std::invalid_argument("metrics: empty instrument name");
  auto [it, inserted] = instruments_.try_emplace(name);
  if (!inserted) {
    throw std::invalid_argument("metrics: duplicate instrument \"" + name + "\"");
  }
  return it->second;
}

void MetricsRegistry::counter(const std::string& name, std::uint64_t value) {
  Instrument& i = emplaceNew(name);
  i.kind = InstrumentKind::kCounter;
  i.counter = value;
}

void MetricsRegistry::gauge(const std::string& name, double value) {
  Instrument& i = emplaceNew(name);
  i.kind = InstrumentKind::kGauge;
  i.gauge = value;
}

void MetricsRegistry::histogram(const std::string& name, const sim::Log2Histogram& h) {
  Instrument& i = emplaceNew(name);
  i.kind = InstrumentKind::kHistogram;
  i.hist.count = h.count();
  i.hist.p50 = h.quantileUpperBound(0.50);
  i.hist.p90 = h.quantileUpperBound(0.90);
  i.hist.p99 = h.quantileUpperBound(0.99);
  for (int b = 0; b < sim::Log2Histogram::kBuckets; ++b) {
    if (h.bucket(b) != 0) i.hist.buckets.emplace_back(b, h.bucket(b));
  }
}

bool MetricsRegistry::has(const std::string& name) const {
  return instruments_.count(name) != 0;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(instruments_.size());
  for (const auto& [name, i] : instruments_) out.push_back(name);
  return out;
}

const MetricsRegistry::Instrument& MetricsRegistry::at(const std::string& name,
                                                       InstrumentKind want) const {
  const auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    throw std::out_of_range("metrics: no instrument \"" + name + "\"");
  }
  if (it->second.kind != want) {
    throw std::invalid_argument("metrics: \"" + name + "\" is a " +
                                toString(it->second.kind) + ", not a " + toString(want));
  }
  return it->second;
}

InstrumentKind MetricsRegistry::kindOf(const std::string& name) const {
  const auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    throw std::out_of_range("metrics: no instrument \"" + name + "\"");
  }
  return it->second.kind;
}

std::uint64_t MetricsRegistry::counterValue(const std::string& name) const {
  return at(name, InstrumentKind::kCounter).counter;
}

double MetricsRegistry::gaugeValue(const std::string& name) const {
  return at(name, InstrumentKind::kGauge).gauge;
}

const MetricsRegistry::HistogramSummary& MetricsRegistry::histogramValue(
    const std::string& name) const {
  return at(name, InstrumentKind::kHistogram).hist;
}

std::string MetricsRegistry::toJson() const {
  util::JsonObject body;
  for (const auto& [name, i] : instruments_) {
    util::JsonObject o;
    o.add("kind", toString(i.kind));
    switch (i.kind) {
      case InstrumentKind::kCounter:
        o.add("value", i.counter);
        break;
      case InstrumentKind::kGauge:
        o.add("value", i.gauge);
        break;
      case InstrumentKind::kHistogram: {
        o.add("count", i.hist.count)
            .add("p50", i.hist.p50)
            .add("p90", i.hist.p90)
            .add("p99", i.hist.p99);
        std::vector<std::string> buckets;
        for (const auto& [log2, count] : i.hist.buckets) {
          std::string b = "[";
          b += std::to_string(log2);
          b += ',';
          b += std::to_string(count);
          b += ']';
          buckets.push_back(std::move(b));
        }
        o.addRaw("buckets", util::jsonArray(buckets));
        break;
      }
    }
    body.addRaw(name, o.str());
  }
  util::JsonObject root;
  root.add("schema", "nwc-metrics-v1").addRaw("instruments", body.str());
  return root.str();
}

void MetricsRegistry::writeJson(const std::string& path) const {
  util::writeFile(path, toJson() + "\n");
}

void publish(MetricsRegistry& reg, const std::string& prefix, const sim::FifoServer& s) {
  reg.counter(prefix + ".jobs", s.jobs());
  reg.counter(prefix + ".busy_ticks", static_cast<std::uint64_t>(s.busyTicks()));
  reg.counter(prefix + ".queued_ticks", static_cast<std::uint64_t>(s.queuedTicks()));
}

void publish(MetricsRegistry& reg, const std::string& prefix, const sim::Accumulator& a) {
  reg.counter(prefix + ".count", a.count());
  reg.gauge(prefix + ".mean", a.mean());
  reg.gauge(prefix + ".min", a.min());
  reg.gauge(prefix + ".max", a.max());
}

void publish(MetricsRegistry& reg, const std::string& prefix, const sim::RatioCounter& r) {
  reg.counter(prefix + ".hits", r.hits());
  reg.counter(prefix + ".misses", r.misses());
  reg.gauge(prefix + ".rate", r.rate());
}

}  // namespace nwc::obs
