// The page-event stream: every fault, swap-out, NACK and clean eviction on
// the obs::EventTimeline, each swap-out named by the path it took, and the
// bare TraceBuffer record (ObsSinks::trace) the repository benchmark reads.
#include <gtest/gtest.h>

#include <cstring>

#include "apps/runner.hpp"
#include "machine/config.hpp"
#include "machine/trace.hpp"
#include "obs/timeline.hpp"

namespace nwc::machine {
namespace {

std::size_t countKind(const TraceBuffer& t, TraceKind k) {
  std::size_t n = 0;
  for (const TraceEvent& e : t.events()) n += e.kind == k ? 1 : 0;
  return n;
}

std::size_t countName(const obs::EventTimeline& tl, const char* name) {
  std::size_t n = 0;
  for (const obs::TimelineEvent& e : tl.events()) {
    n += std::strcmp(e.name, name) == 0 ? 1 : 0;
  }
  return n;
}

apps::RunSummary runTimed(const MachineConfig& cfg, const char* app, double scale,
                          obs::EventTimeline& tl) {
  apps::ObsSinks sinks;
  sinks.timeline = &tl;
  return apps::runApp(cfg, app, scale, sinks);
}

TEST(TimelineIntegration, EventsMatchMetrics) {
  MachineConfig cfg;
  cfg.withSystem(SystemKind::kNWCache, Prefetch::kNaive);
  cfg.memory_per_node = 16 * 1024;  // pages: ~950 swap-outs
  cfg.min_free_frames = 2;
  // Every page-event layer; the mesh layer would add every message.
  obs::EventTimeline tl(obs::kAllLayers & ~obs::layerBit(obs::Layer::kMesh));
  const apps::RunSummary s = runTimed(cfg, "sor", 0.25, tl);
  ASSERT_TRUE(s.verified);
  ASSERT_GT(s.metrics.swap_outs, 0u);

  EXPECT_EQ(countName(tl, "fault.service"), s.metrics.faults);
  EXPECT_EQ(countName(tl, "fault.fetch_ring") + countName(tl, "fault.fetch_ctrl_hit") +
                countName(tl, "fault.fetch_disk"),
            s.metrics.faults);
  EXPECT_EQ(countName(tl, "fault.fetch_ring"), s.metrics.ring_read_hits.hits());
  EXPECT_EQ(countName(tl, "swap.ring") + countName(tl, "swap.disk"), s.metrics.swap_outs);
  EXPECT_EQ(countName(tl, "swap.disk"), 0u);  // every swap-out went to the ring
  EXPECT_EQ(countName(tl, "swap.clean_eviction"), s.metrics.clean_evictions);
  EXPECT_EQ(countName(tl, "swap.nack"), s.metrics.nacks);
  // No occupancy counters without a sampler: they come from it alone.
  for (const obs::TimelineEvent& e : tl.events()) {
    EXPECT_NE(e.shape, obs::EventShape::kCounter) << e.name;
  }
}

// On every machine each swap-out is one swap span and each fault one fetch
// span, whichever path served it.
TEST(TimelineIntegration, EveryMachineSpansMatchMetrics) {
  for (const auto& [sys, name] : kSystemKindNames) {
    SCOPED_TRACE(name);
    MachineConfig cfg;
    cfg.withSystem(sys, Prefetch::kNaive);
    cfg.memory_per_node = 16 * 1024;
    cfg.min_free_frames = 12;
    obs::EventTimeline tl(obs::kAllLayers & ~obs::layerBit(obs::Layer::kMesh));
    const apps::RunSummary s = runTimed(cfg, "radix", 0.1, tl);
    ASSERT_TRUE(s.ok());
    ASSERT_GT(s.metrics.swap_outs, 0u);
    EXPECT_EQ(countName(tl, "swap.ring") + countName(tl, "swap.disk"), s.metrics.swap_outs);
    EXPECT_EQ(countName(tl, "fault.fetch_ring") + countName(tl, "fault.fetch_ctrl_hit") +
                  countName(tl, "fault.fetch_disk"),
              s.metrics.faults);
  }
}

// --- the TraceBuffer sink ---------------------------------------------------

TEST(ObsSinks, TraceMatchesMetrics) {
  MachineConfig cfg;
  cfg.withSystem(SystemKind::kNWCache, Prefetch::kNaive);
  cfg.memory_per_node = 16 * 1024;  // pages: ~950 swap-outs
  cfg.min_free_frames = 2;
  TraceBuffer trace;
  apps::ObsSinks sinks;
  sinks.trace = &trace;
  const apps::RunSummary s = apps::runApp(cfg, "sor", 0.25, sinks);
  ASSERT_TRUE(s.verified);
  ASSERT_GT(s.metrics.swap_outs, 0u);

  const std::size_t faults = countKind(trace, TraceKind::kFaultDiskHit) +
                             countKind(trace, TraceKind::kFaultDiskMiss) +
                             countKind(trace, TraceKind::kFaultRingHit);
  EXPECT_EQ(faults, s.metrics.faults);
  EXPECT_EQ(countKind(trace, TraceKind::kFaultRingHit), s.metrics.ring_read_hits.hits());
  EXPECT_EQ(countKind(trace, TraceKind::kSwapOutRing) +
                countKind(trace, TraceKind::kSwapOutDisk),
            s.metrics.swap_outs);
  EXPECT_EQ(countKind(trace, TraceKind::kSwapOutDisk), 0u);  // every swap-out went to the ring
  EXPECT_EQ(countKind(trace, TraceKind::kCleanEviction), s.metrics.clean_evictions);
  EXPECT_EQ(countKind(trace, TraceKind::kNack), s.metrics.nacks);
}

TEST(ObsSinks, StandardMachineUsesDiskPath) {
  MachineConfig cfg;
  cfg.withSystem(SystemKind::kStandard, Prefetch::kOptimal);
  cfg.memory_per_node = 32 * 1024;
  cfg.min_free_frames = 4;
  TraceBuffer trace;
  obs::EventTimeline tl(obs::layerBit(obs::Layer::kSwap));
  apps::ObsSinks sinks;
  sinks.trace = &trace;
  sinks.timeline = &tl;
  const apps::RunSummary s = apps::runApp(cfg, "sor", 0.25, sinks);
  ASSERT_TRUE(s.verified);
  EXPECT_EQ(countKind(trace, TraceKind::kSwapOutRing), 0u);
  EXPECT_EQ(countKind(trace, TraceKind::kFaultRingHit), 0u);
  EXPECT_GT(countKind(trace, TraceKind::kSwapOutDisk), 0u);
  EXPECT_EQ(countName(tl, "swap.disk"), s.metrics.swap_outs);
}

TEST(ObsSinks, TraceEventsAreTimeOrderedWithinRun) {
  MachineConfig cfg;
  cfg.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
  cfg.memory_per_node = 32 * 1024;
  cfg.min_free_frames = 2;
  TraceBuffer trace;
  apps::ObsSinks sinks;
  sinks.trace = &trace;
  (void)apps::runApp(cfg, "radix", 0.1, sinks);
  ASSERT_FALSE(trace.events().empty());
  sim::Tick prev = 0;
  for (const auto& e : trace.events()) {
    EXPECT_GE(e.at, prev);
    prev = e.at;
  }
}

}  // namespace
}  // namespace nwc::machine
