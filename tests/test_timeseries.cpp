// TimeSeries: sampling, decimation, statistics, sparkline rendering; and
// the machine occupancy the periodic sampler records into it.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/runner.hpp"
#include "machine/backends/io_backend.hpp"
#include "machine/machine.hpp"
#include "obs/health.hpp"
#include "obs/sampler.hpp"
#include "sim/timeseries.hpp"

namespace nwc::sim {
namespace {

TEST(TimeSeries, BasicStats) {
  TimeSeries ts;
  ts.sample(0, 2.0);
  ts.sample(10, 6.0);
  ts.sample(20, 4.0);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts.minValue(), 2.0);
  EXPECT_DOUBLE_EQ(ts.maxValue(), 6.0);
  // Time-weighted: 2.0 for 10 ticks + 6.0 for 10 ticks over a 20-tick span.
  EXPECT_DOUBLE_EQ(ts.timeWeightedMean(), 4.0);
}

TEST(TimeSeries, ValueAt) {
  TimeSeries ts;
  ts.sample(10, 1.0);
  ts.sample(20, 2.0);
  EXPECT_DOUBLE_EQ(ts.valueAt(5), 0.0);   // before first sample
  EXPECT_DOUBLE_EQ(ts.valueAt(10), 1.0);
  EXPECT_DOUBLE_EQ(ts.valueAt(15), 1.0);  // holds until the next sample
  EXPECT_DOUBLE_EQ(ts.valueAt(20), 2.0);
  EXPECT_DOUBLE_EQ(ts.valueAt(99), 2.0);
}

TEST(TimeSeries, DecimationBoundsMemory) {
  TimeSeries ts(64);
  for (Tick t = 0; t < 10000; ++t) ts.sample(t, static_cast<double>(t));
  EXPECT_LE(ts.size(), 64u);
  EXPECT_DOUBLE_EQ(ts.maxValue(), ts.points().back().second);
}

TEST(TimeSeries, DecimationPreservesStats) {
  // A spiky sawtooth through many merge rounds: the undecimated reference
  // statistics must survive exactly (extremes) or to float tolerance (the
  // hold integral behind timeWeightedMean).
  TimeSeries full(1 << 20);  // never decimates at this length
  TimeSeries dec(32);        // many rounds of pair-merging
  Tick t = 0;
  for (int i = 0; i < 5000; ++i) {
    const double v = (i % 17) * ((i % 5 == 0) ? -1.0 : 3.0);
    t += 1 + static_cast<Tick>(i % 7);  // irregular spacing
    full.sample(t, v);
    dec.sample(t, v);
  }
  EXPECT_LE(dec.size(), 32u);
  EXPECT_DOUBLE_EQ(dec.minValue(), full.minValue());
  EXPECT_DOUBLE_EQ(dec.maxValue(), full.maxValue());
  EXPECT_NEAR(dec.timeWeightedMean(), full.timeWeightedMean(),
              1e-9 * std::abs(full.timeWeightedMean()) + 1e-12);
  // Merged series spans the same time window.
  EXPECT_EQ(dec.points().front().first, full.points().front().first);
  EXPECT_EQ(dec.points().back().first, full.points().back().first);
}

TEST(TimeSeries, SparklineShape) {
  TimeSeries ts;
  for (Tick t = 0; t <= 100; ++t) {
    ts.sample(t, t < 50 ? 0.0 : 10.0);  // step function
  }
  const std::string s = ts.sparkline(10);
  ASSERT_EQ(s.size(), 10u);
  EXPECT_EQ(s.front(), ' ');  // low half
  EXPECT_EQ(s.back(), '@');   // high half at peak level
}

TEST(TimeSeries, SparklineEmptyIsBlank) {
  TimeSeries ts;
  EXPECT_EQ(ts.sparkline(8), "        ");
}

TEST(TimeSeries, SingletonSeries) {
  TimeSeries ts;
  ts.sample(5, 3.0);
  EXPECT_DOUBLE_EQ(ts.timeWeightedMean(), 3.0);
  EXPECT_EQ(ts.sparkline(4).size(), 4u);
}

// Machine occupancy over time comes from the periodic sampler alone.
TEST(MachineSampler, SamplesDuringRun) {
  machine::MachineConfig cfg;
  cfg.withSystem(machine::SystemKind::kNWCache, machine::Prefetch::kOptimal);
  cfg.memory_per_node = 32 * 1024;
  cfg.min_free_frames = 2;
  machine::Machine m(cfg);
  obs::SamplerConfig scfg;
  scfg.interval = 500;
  obs::Sampler sampler(scfg, apps::healthContextFor(cfg));
  m.attachSampler(&sampler);
  m.allocRegion(64 * 4096);
  m.start();
  auto workload = [&]() -> Task<> {
    for (PageId p = 0; p < 48; ++p) {
      co_await m.access(0, static_cast<std::uint64_t>(p) * 4096, true);
    }
    co_await m.fence(0);
    m.cpuDone(0);
  };
  m.engine().spawn(workload());
  // The sampling daemon stops once every CPU has retired; the others are idle.
  for (int cpu = 1; cpu < cfg.num_nodes; ++cpu) m.cpuDone(cpu);
  m.engine().run();

  const TimeSeries& free = sampler.track(obs::Track::kFreeFrames);
  const TimeSeries& staged = sampler.track(obs::Track::kRingStaged);
  EXPECT_GT(sampler.samples(), 2u);
  EXPECT_EQ(free.size(), sampler.samples());
  EXPECT_GT(staged.maxValue(), 0.0);  // pages passed over the ring
  // Free frames never exceed the machine total.
  EXPECT_LE(free.maxValue(), static_cast<double>(cfg.num_nodes * cfg.framesPerNode()));
  EXPECT_EQ(m.backend().stagedPages(), 0);  // the ring drained
}

// A run whose CPUs never all retire (here CPUs 1..n-1 never call cpuDone)
// must still drain the calendar: once the sampling daemon is the only event
// left it exits, as the unsampled run returns, instead of re-arming forever.
TEST(MachineSampler, StalledRunStillDrainsCalendar) {
  machine::MachineConfig cfg;
  cfg.withSystem(machine::SystemKind::kNWCache, machine::Prefetch::kOptimal);
  cfg.memory_per_node = 32 * 1024;
  cfg.min_free_frames = 2;
  machine::Machine m(cfg);
  obs::SamplerConfig scfg;
  scfg.interval = 500;
  obs::Sampler sampler(scfg, apps::healthContextFor(cfg));
  m.attachSampler(&sampler);
  m.allocRegion(64 * 4096);
  m.start();
  auto workload = [&]() -> Task<> {
    for (PageId p = 0; p < 48; ++p) {
      co_await m.access(0, static_cast<std::uint64_t>(p) * 4096, true);
    }
    co_await m.fence(0);
    m.cpuDone(0);
  };
  m.engine().spawn(workload());
  // Bounded, so a daemon that never exits fails the test instead of hanging.
  m.engine().runUntil(10'000'000);

  EXPECT_EQ(m.engine().pendingEvents(), 0u);
  EXPECT_GT(sampler.samples(), 2u);
}

TEST(MachineSampler, DetachedByDefault) {
  machine::MachineConfig cfg;
  machine::Machine m(cfg);
  EXPECT_EQ(m.sampler(), nullptr);
}

}  // namespace
}  // namespace nwc::sim
