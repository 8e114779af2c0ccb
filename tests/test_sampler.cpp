// Continuous telemetry: the periodic sampler, the online health detectors,
// and the determinism of the nwc-timeseries-v1 export under parallel runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "machine/config.hpp"
#include "obs/health.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/timeline.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace nwc {
namespace {

// The gauge tracks: the ones a sampler mirrors onto an attached timeline.
std::vector<obs::Track> gaugeTracks() {
  std::vector<obs::Track> gauges;
  for (std::size_t i = 0; i < obs::kNumTracks; ++i) {
    const auto t = static_cast<obs::Track>(i);
    if (!obs::isCumulative(t)) gauges.push_back(t);
  }
  return gauges;
}

obs::HealthMonitor::Window window(sim::Tick t0, sim::Tick t1) {
  obs::HealthMonitor::Window w;
  w.t0 = t0;
  w.t1 = t1;
  return w;
}

TEST(HealthMonitor, TripsOnlyAfterConsecutiveHotWindows) {
  obs::HealthThresholds th;
  th.consecutive = 3;
  obs::HealthMonitor mon(th, obs::HealthContext{});

  // Two hot windows, a quiet one, then two more: never three in a row.
  for (int hot : {1, 1, 0, 1, 1}) {
    auto w = window(0, 1000);
    w.nacks = hot ? 100.0 : 0.0;
    mon.observe(w);
  }
  EXPECT_EQ(mon.totalTrips(), 0u);
  EXPECT_STREQ(mon.verdict(), "healthy");
  EXPECT_EQ(mon.state(obs::Detector::kNackStorm).windows, 4u);

  // The third consecutive hot window starts the episode — exactly once.
  for (int i = 0; i < 5; ++i) {
    auto w = window(i * 1000, (i + 1) * 1000);
    w.nacks = 100.0;
    mon.observe(w);
  }
  EXPECT_EQ(mon.state(obs::Detector::kNackStorm).trips, 1u);
  EXPECT_TRUE(mon.state(obs::Detector::kNackStorm).active);
  EXPECT_STREQ(mon.verdict(), "degraded");
  ASSERT_EQ(mon.events().size(), 1u);
  EXPECT_TRUE(mon.events()[0].onset);
  EXPECT_EQ(mon.events()[0].detector, obs::Detector::kNackStorm);
}

TEST(HealthMonitor, ClearsAfterConsecutiveQuietWindows) {
  obs::HealthThresholds th;
  th.consecutive = 2;
  obs::HealthMonitor mon(th, obs::HealthContext{});

  for (int hot : {1, 1, 0, 0}) {
    auto w = window(0, 1000);
    w.nacks = hot ? 100.0 : 0.0;
    mon.observe(w);
  }
  EXPECT_FALSE(mon.state(obs::Detector::kNackStorm).active);
  ASSERT_EQ(mon.events().size(), 2u);
  EXPECT_TRUE(mon.events()[0].onset);
  EXPECT_FALSE(mon.events()[1].onset);
  // A cleared episode still counts toward the verdict.
  EXPECT_STREQ(mon.verdict(), "degraded");
  EXPECT_EQ(mon.totalTrips(), 1u);
}

TEST(HealthMonitor, FreeFramesWorstTracksMinimum) {
  obs::HealthThresholds th;
  th.consecutive = 1;
  th.free_frames_frac = 0.5;
  obs::HealthContext ctx;
  ctx.reserve_frames = 100.0;  // hot when free <= 50
  obs::HealthMonitor mon(th, ctx);

  for (double free : {40.0, 10.0, 30.0, 80.0}) {
    auto w = window(0, 1000);
    w.free_frames = free;
    mon.observe(w);
  }
  const auto& s = mon.state(obs::Detector::kFreeFrames);
  EXPECT_EQ(s.trips, 1u);
  EXPECT_EQ(s.windows, 3u);    // 80 was quiet
  EXPECT_EQ(s.worst, 10.0);    // lower is worse for free frames
}

TEST(HealthMonitor, ContextZerosDisableDependentDetectors) {
  obs::HealthThresholds th;
  th.consecutive = 1;
  obs::HealthMonitor mon(th, obs::HealthContext{});  // all zeros

  auto w = window(0, 1000);
  w.free_frames = 0.0;     // would be starved if a reserve existed
  w.ring_staged = 1e9;     // would peg any ring
  w.retunes = 1e9;
  mon.observe(w);
  EXPECT_EQ(mon.state(obs::Detector::kFreeFrames).trips, 0u);
  EXPECT_EQ(mon.state(obs::Detector::kRingPegged).trips, 0u);
  EXPECT_EQ(mon.state(obs::Detector::kRetuneLivelock).trips, 0u);
  EXPECT_STREQ(mon.verdict(), "healthy");
}

TEST(HealthMonitor, EventLogIsBounded) {
  obs::HealthThresholds th;
  th.consecutive = 1;
  th.max_events = 3;
  obs::HealthMonitor mon(th, obs::HealthContext{});

  // Alternate hot/quiet: every window is a transition.
  for (int i = 0; i < 10; ++i) {
    auto w = window(i * 1000, (i + 1) * 1000);
    w.nacks = (i % 2 == 0) ? 100.0 : 0.0;
    mon.observe(w);
  }
  EXPECT_EQ(mon.events().size(), 3u);
  EXPECT_EQ(mon.eventsDropped(), 7u);
}

TEST(HealthMonitor, PublishesMetricsCatalog) {
  obs::HealthThresholds th;
  th.consecutive = 1;
  obs::HealthMonitor mon(th, obs::HealthContext{});
  auto w = window(0, 1000);
  w.nacks = 100.0;
  mon.observe(w);

  obs::MetricsRegistry reg;
  mon.publishMetrics(reg);
  EXPECT_EQ(reg.counterValue("health.trips"), 1u);
  EXPECT_EQ(reg.counterValue("health.nack_storm.trips"), 1u);
  EXPECT_EQ(reg.counterValue("health.free_frames.trips"), 0u);
  EXPECT_EQ(reg.gaugeValue("health.nack_storm.worst"), 100.0);
  EXPECT_EQ(reg.counterValue("health.events"), 1u);
  EXPECT_EQ(reg.counterValue("health.events_dropped"), 0u);
}

TEST(Sampler, RejectsNonPositiveInterval) {
  obs::SamplerConfig cfg;
  cfg.interval = 0;
  EXPECT_THROW(obs::Sampler(cfg, obs::HealthContext{}), std::invalid_argument);
}

TEST(Sampler, ExportRoundTripsAndMirrorsHealthOntoTimeline) {
  obs::SamplerConfig cfg;
  cfg.interval = 1000;
  cfg.thresholds.consecutive = 1;
  cfg.thresholds.nack_storm_min = 10;
  obs::Sampler sampler(cfg, obs::HealthContext{});
  obs::EventTimeline tl;
  sampler.attachTimeline(&tl);

  obs::SampleFrame f;
  sampler.record(0, f);  // baseline
  f[obs::Track::kNacks] = 50.0;  // delta 50 >= 10: hot window
  f[obs::Track::kFreeFrames] = 7.0;
  sampler.record(1000, f);
  EXPECT_EQ(sampler.samples(), 2u);

  // Each sample mirrored its gauges as counter samples; the onset landed
  // as a health-layer instant after the second sample's counters.
  const std::vector<obs::Track> tracks = gaugeTracks();
  const std::size_t gauges = tracks.size();
  ASSERT_EQ(gauges, 4u);  // free frames, swaps in flight, ring staged, dirty slots
  ASSERT_EQ(tl.size(), 2 * gauges + 1);
  for (std::size_t i = 0; i < 2 * gauges; ++i) {
    const obs::TimelineEvent& e = tl.events()[i];
    const obs::Track g = tracks[i % gauges];
    EXPECT_EQ(e.shape, obs::EventShape::kCounter);
    EXPECT_STREQ(e.name, obs::toString(g));
    EXPECT_EQ(e.start, i < gauges ? 0 : 1000);
    EXPECT_EQ(e.value, i < gauges ? 0.0 : f[g]);
  }
  EXPECT_EQ(tl.events()[gauges].value, 7.0);  // vm.free_frames at t=1000
  EXPECT_EQ(tl.events()[gauges].layer, obs::Layer::kVm);
  EXPECT_EQ(tl.count(obs::Layer::kRing), 2u);  // ring.staged_pages
  EXPECT_EQ(tl.count(obs::Layer::kDisk), 2u);  // disk.dirty_slots
  EXPECT_EQ(tl.events().back().layer, obs::Layer::kHealth);
  EXPECT_STREQ(tl.events().back().name, "health.nack_storm");

  const auto doc = util::parseJson(sampler.toJson());
  EXPECT_EQ(doc.at("schema").string, "nwc-timeseries-v1");
  EXPECT_EQ(doc.at("interval_pcycles").number, 1000.0);
  EXPECT_EQ(doc.at("samples").number, 2.0);
  EXPECT_EQ(doc.at("tracks").object.size(), obs::kNumTracks);
  const auto& nacks = doc.at("tracks").at("swap.nacks");
  EXPECT_EQ(nacks.at("kind").string, "cumulative");
  EXPECT_EQ(nacks.at("max").number, 50.0);
  const auto& health = doc.at("health");
  EXPECT_EQ(health.at("verdict").string, "degraded");
  ASSERT_EQ(health.at("events").array.size(), 1u);
  EXPECT_EQ(health.at("events").array[0].at("detector").string, "nack_storm");
  EXPECT_EQ(health.at("events").array[0].at("kind").string, "onset");

  // Tracks in catalog order, each with one [tick,value] point per sample
  // at the same ticks.
  const auto& tracks_json = doc.at("tracks").object;
  EXPECT_EQ(tracks_json.front().first, "vm.free_frames");
  for (const auto& [name, track] : tracks_json) {
    const auto& pts = track.at("points").array;
    ASSERT_EQ(pts.size(), 2u) << name;
    EXPECT_EQ(pts[0].array.at(0).number, 0.0) << name;
    EXPECT_EQ(pts[1].array.at(0).number, 1000.0) << name;
  }
  const auto& free_pts = doc.at("tracks").at("vm.free_frames").at("points").array;
  EXPECT_EQ(free_pts[0].array.at(1).number, 0.0);
  EXPECT_EQ(free_pts[1].array.at(1).number, 7.0);
}

TEST(EventTimeline, DropsAreCountedPerLayer) {
  obs::EventTimeline tl(obs::kAllLayers, 2);
  tl.instant(obs::Layer::kMesh, "m", 0, 0, sim::kNoPage);
  tl.instant(obs::Layer::kMesh, "m", 1, 0, sim::kNoPage);
  tl.instant(obs::Layer::kRing, "r", 2, 0, sim::kNoPage);
  tl.instant(obs::Layer::kRing, "r", 3, 0, sim::kNoPage);
  EXPECT_EQ(tl.dropped(), 2u);
  EXPECT_EQ(tl.droppedByLayer(obs::Layer::kMesh), 2u);
  EXPECT_EQ(tl.droppedByLayer(obs::Layer::kRing), 0u);
  tl.clear();
  EXPECT_EQ(tl.droppedByLayer(obs::Layer::kMesh), 0u);
}

// The provoked scenario: a memory-starved standard machine runs its free
// list against the floor, so the free-frames detector must fire; the pinned
// comfortable configuration must stay quiet. Asserting both directions keeps
// the detectors calibrated — neither dead nor crying wolf.
TEST(SamplerEndToEnd, DetectsStarvationAndStaysQuietWhenHealthy) {
  const double scale = 0.02;

  auto runSampled = [&](machine::MachineConfig cfg) {
    obs::SamplerConfig scfg;
    scfg.interval = 50'000;
    obs::Sampler sampler(scfg, apps::healthContextFor(cfg));
    apps::ObsSinks sinks;
    sinks.sampler = &sampler;
    const apps::RunSummary s = apps::runApp(cfg, "radix", scale, sinks);
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.health_verdict, sampler.health().verdict());
    EXPECT_GT(sampler.samples(), 0u);
    return std::string(sampler.health().verdict());
  };

  machine::MachineConfig starved;
  starved.withSystem(machine::SystemKind::kStandard, machine::Prefetch::kOptimal);
  starved.memory_per_node = 16 * 1024;
  EXPECT_EQ(runSampled(starved), "degraded");

  machine::MachineConfig healthy;
  healthy.withSystem(machine::SystemKind::kNWCache, machine::Prefetch::kOptimal);
  healthy.memory_per_node = 32 * 1024;
  EXPECT_EQ(runSampled(healthy), "healthy");
}

// The timeline's counter tracks come from the sampler alone: one counter
// event per mirrored gauge per sample, none from the machine's page events.
TEST(SamplerEndToEnd, TimelineCountersAreTheSamplersGauges) {
  machine::MachineConfig cfg;
  cfg.withSystem(machine::SystemKind::kNWCache, machine::Prefetch::kOptimal);
  cfg.memory_per_node = 16 * 1024;
  cfg.min_free_frames = 12;
  obs::Sampler sampler(obs::SamplerConfig{}, apps::healthContextFor(cfg));
  obs::EventTimeline tl(obs::kAllLayers & ~obs::layerBit(obs::Layer::kMesh));
  apps::ObsSinks sinks;
  sinks.sampler = &sampler;
  sinks.timeline = &tl;
  const apps::RunSummary s = apps::runApp(cfg, "radix", 0.05, sinks);
  ASSERT_TRUE(s.ok());
  ASSERT_GT(s.metrics.swap_outs, 0u);
  std::size_t counters = 0;
  for (const obs::TimelineEvent& e : tl.events()) {
    if (e.shape == obs::EventShape::kCounter) ++counters;
  }
  EXPECT_EQ(counters, sampler.samples() * gaugeTracks().size());
}

// The tentpole's acceptance bar: the sampled export is a pure function of
// the machine configuration — byte-identical whether the run executed alone
// or beside three concurrent ones.
TEST(SamplerDeterminism, ParallelRunsMatchSerial) {
  machine::MachineConfig cfg;
  cfg.withSystem(machine::SystemKind::kNWCache, machine::Prefetch::kOptimal);
  cfg.memory_per_node = 32 * 1024;
  const double scale = 0.02;

  auto exportJson = [&]() {
    obs::SamplerConfig scfg;
    scfg.interval = 50'000;
    obs::Sampler sampler(scfg, apps::healthContextFor(cfg));
    apps::ObsSinks sinks;
    sinks.sampler = &sampler;
    apps::runApp(cfg, "radix", scale, sinks);
    return sampler.toJson();
  };

  const std::string serial = exportJson();
  std::vector<std::string> parallel(4);
  util::ParallelExecutor exec(4);
  exec.forEachIndex(parallel.size(),
                    [&](std::size_t i) { parallel[i] = exportJson(); });
  for (const std::string& p : parallel) EXPECT_EQ(p, serial);
}

}  // namespace
}  // namespace nwc
