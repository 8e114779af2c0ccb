// Observability layer: metrics registry, event timeline, exports, and
// determinism of the published metrics under parallel execution.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "machine/config.hpp"
#include "obs/registry.hpp"
#include "obs/timeline.hpp"
#include "sim/stats.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace nwc {
namespace {

TEST(MetricsRegistry, RejectsNameCollisions) {
  obs::MetricsRegistry reg;
  reg.counter("ring.inserts", 3);
  EXPECT_THROW(reg.counter("ring.inserts", 4), std::invalid_argument);
  // Cross-kind collisions are just as much of a bug.
  EXPECT_THROW(reg.gauge("ring.inserts", 1.0), std::invalid_argument);
  sim::Log2Histogram h;
  EXPECT_THROW(reg.histogram("ring.inserts", h), std::invalid_argument);
  EXPECT_THROW(reg.counter("", 1), std::invalid_argument);
  // The original value survives the rejected re-registrations.
  EXPECT_EQ(reg.counterValue("ring.inserts"), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, HistogramBucketEdges) {
  // Bucket i covers [2^i, 2^(i+1)); zero lands in bucket 0 with the ones.
  sim::Log2Histogram h;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 7ull, 8ull, 255ull, 256ull}) {
    h.add(v);
  }
  obs::MetricsRegistry reg;
  reg.histogram("lat", h);
  const auto& s = reg.histogramValue("lat");
  EXPECT_EQ(s.count, 9u);
  const std::vector<std::pair<int, std::uint64_t>> expect = {
      {0, 2},  // 0, 1
      {1, 2},  // 2, 3
      {2, 2},  // 4, 7
      {3, 1},  // 8
      {7, 1},  // 255
      {8, 1},  // 256
  };
  EXPECT_EQ(s.buckets, expect);
}

TEST(MetricsRegistry, ExportsAreDeterministic) {
  auto fill = [](obs::MetricsRegistry& reg) {
    reg.gauge("b.util", 0.25);
    reg.counter("a.count", 7);
    reg.counter("c.count", 9);
  };
  obs::MetricsRegistry r1, r2;
  fill(r1);
  fill(r2);
  EXPECT_EQ(r1.toJson(), r2.toJson());
  // Lexicographic order regardless of registration order.
  EXPECT_EQ(r1.names(), (std::vector<std::string>{"a.count", "b.util", "c.count"}));
  // And the JSON round-trips through the bundled parser.
  const auto doc = util::parseJson(r1.toJson());
  EXPECT_EQ(doc.at("schema").string, "nwc-metrics-v1");
  EXPECT_EQ(doc.at("instruments").object.size(), 3u);
}

TEST(EventTimeline, RingBufferOverflowKeepsNewest) {
  obs::EventTimeline tl(obs::kAllLayers, 4);
  for (int i = 0; i < 10; ++i) {
    tl.counterSample(obs::Layer::kVm, "free", static_cast<sim::Tick>(i),
                     static_cast<double>(i));
  }
  EXPECT_EQ(tl.capacity(), 4u);
  EXPECT_EQ(tl.size(), 4u);
  EXPECT_EQ(tl.dropped(), 6u);
  EXPECT_EQ(tl.events().front().start, 6);  // oldest retained is event #6
  EXPECT_EQ(tl.events().back().start, 9);
}

TEST(EventTimeline, DisabledLayerCostsNothing) {
  obs::EventTimeline tl(obs::layerBit(obs::Layer::kRing));
  EXPECT_TRUE(tl.enabled(obs::Layer::kRing));
  EXPECT_FALSE(tl.enabled(obs::Layer::kMesh));
  EXPECT_EQ(tl.span(obs::Layer::kMesh, "msg", 0, 5, 0, sim::kNoPage), 0u);
  tl.instant(obs::Layer::kDisk, "op", 1, 0, sim::kNoPage);
  EXPECT_TRUE(tl.empty());
  tl.span(obs::Layer::kRing, "tx", 0, 5, 0, sim::kNoPage);
  EXPECT_EQ(tl.size(), 1u);
}

TEST(EventTimeline, LayerMaskParsing) {
  EXPECT_EQ(obs::layerMaskFromString("all"), obs::kAllLayers);
  EXPECT_EQ(obs::layerMaskFromString("ring,disk"),
            obs::layerBit(obs::Layer::kRing) | obs::layerBit(obs::Layer::kDisk));
  EXPECT_THROW(obs::layerMaskFromString("warp"), std::invalid_argument);
}

TEST(EventTimeline, ChromeTraceParsesAndNests) {
  obs::EventTimeline tl;
  const std::uint64_t fault = tl.reserveSpanId();
  tl.span(obs::Layer::kRing, "fault.fetch_ring", 10, 20, 0, 42, fault);
  tl.span(obs::Layer::kFault, "fault.service", 5, 30, 0, 42, 0, fault);
  tl.asyncSpan(obs::Layer::kSwap, "swap.ring", 0, 100, 1, 7);
  tl.instant(obs::Layer::kTlb, "tlb.shootdown", 50, 2, 7);
  tl.counterSample(obs::Layer::kVm, "vm.free_frames", 60, 12.0);

  std::ostringstream trace;
  tl.writeChromeTrace(trace, 5.0);
  const auto doc = util::parseJson(trace.str());
  const auto& events = doc.at("traceEvents").array;
  ASSERT_GE(events.size(), 5u);

  int x = 0, b = 0, e = 0, i = 0, c = 0;
  for (const auto& ev : events) {
    const std::string& ph = ev.at("ph").string;
    if (ph == "X") ++x;
    if (ph == "b") ++b;
    if (ph == "e") ++e;
    if (ph == "i") ++i;
    if (ph == "C") ++c;
  }
  EXPECT_EQ(x, 2);  // fault.service + nested fetch
  EXPECT_EQ(b, 1);
  EXPECT_EQ(e, 1);
  EXPECT_EQ(i, 1);
  EXPECT_EQ(c, 1);

  // The child span renders on the same track (pid/tid) as its parent.
  const util::JsonValue* parent = nullptr;
  const util::JsonValue* child = nullptr;
  for (const auto& ev : events) {
    if (ev.at("ph").string != "X") continue;
    if (ev.at("name").string == "fault.service") parent = &ev;
    if (ev.at("name").string == "fault.fetch_ring") child = &ev;
  }
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(parent->at("pid").number, child->at("pid").number);
  EXPECT_EQ(parent->at("tid").number, child->at("tid").number);
  // 5 ns/pcycle: span start 5 pcycles -> 0.025 us.
  EXPECT_DOUBLE_EQ(parent->at("ts").number, 0.025);
  EXPECT_DOUBLE_EQ(parent->at("dur").number, 0.15);
}

// The acceptance bar for batch telemetry: the published metrics catalog is
// a pure function of the machine configuration, byte-identical whether the
// simulation ran alone or beside three concurrent ones (--jobs=4).
TEST(MetricsDeterminism, ParallelRunsMatchSerial) {
  machine::MachineConfig cfg;
  cfg.withSystem(machine::SystemKind::kNWCache, machine::Prefetch::kOptimal);
  cfg.memory_per_node = 32 * 1024;
  const double scale = 0.05;

  auto metricsJson = [&]() {
    obs::MetricsRegistry reg;
    apps::ObsSinks sinks;
    sinks.registry = &reg;
    apps::runApp(cfg, "radix", scale, sinks);
    return reg.toJson();
  };

  const std::string serial = metricsJson();
  EXPECT_NE(serial.find("ring."), std::string::npos);

  std::vector<std::string> parallel(4);
  util::ParallelExecutor exec(4);
  exec.forEachIndex(parallel.size(),
                    [&](std::size_t i) { parallel[i] = metricsJson(); });
  for (const std::string& p : parallel) EXPECT_EQ(p, serial);
}

}  // namespace
}  // namespace nwc
