// Host self-profiler (obs/profiler): phase tree, allocation counters, pool
// stats, exports, and byte-identity of simulated output under profiling.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "apps/runner.hpp"
#include "machine/config.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "util/parallel.hpp"

namespace nwc {
namespace {

using obs::prof::Scope;

// Every test starts from a clean, enabled profiler and leaves it disabled:
// the profiler is process-global state shared across tests.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::prof::enable();
    obs::prof::reset();
  }
  void TearDown() override {
    obs::prof::disable();
    obs::prof::reset();
  }
};

void spin(std::uint64_t ns) {
  const std::uint64_t until = obs::prof::nowNs() + ns;
  while (obs::prof::nowNs() < until) {
  }
}

TEST_F(ProfilerTest, NestedScopesFormTree) {
  {
    Scope outer("outer");
    spin(50'000);
    {
      Scope inner("inner");
      spin(50'000);
    }
    {
      Scope inner("inner");  // same name: accumulates, count = 2
      spin(50'000);
    }
  }
  const obs::prof::Report r = obs::prof::snapshot();
  ASSERT_EQ(r.root.children.count("outer"), 1u);
  const obs::prof::Node& outer = r.root.children.at("outer");
  EXPECT_EQ(outer.count, 1u);
  ASSERT_EQ(outer.children.count("inner"), 1u);
  const obs::prof::Node& inner = outer.children.at("inner");
  EXPECT_EQ(inner.count, 2u);
  EXPECT_GT(inner.wall_ns, 0u);
  // A child cannot outlast its parent.
  EXPECT_LE(inner.wall_ns, outer.wall_ns);
}

TEST_F(ProfilerTest, SiblingScopesStayTopLevel) {
  {
    Scope a("alpha");
  }
  {
    Scope b("beta");
  }
  const obs::prof::Report r = obs::prof::snapshot();
  EXPECT_EQ(r.root.children.count("alpha"), 1u);
  EXPECT_EQ(r.root.children.count("beta"), 1u);
  EXPECT_TRUE(r.root.children.at("alpha").children.empty());
}

TEST_F(ProfilerTest, MultiThreadBuffersMergeInSnapshot) {
  constexpr int kThreads = 4;
  constexpr int kScopesPerThread = 100;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([] {
      for (int j = 0; j < kScopesPerThread; ++j) {
        Scope s("worker-phase");
        Scope nested("step");
      }
    });
  }
  for (std::thread& t : ts) t.join();
  // Threads have exited: their buffers merged into the dead-thread
  // accumulator. A main-thread scope must land in the same tree.
  { Scope s("worker-phase"); }
  const obs::prof::Report r = obs::prof::snapshot();
  ASSERT_EQ(r.root.children.count("worker-phase"), 1u);
  const obs::prof::Node& n = r.root.children.at("worker-phase");
  EXPECT_EQ(n.count, static_cast<std::uint64_t>(kThreads * kScopesPerThread + 1));
  ASSERT_EQ(n.children.count("step"), 1u);
  EXPECT_EQ(n.children.at("step").count,
            static_cast<std::uint64_t>(kThreads * kScopesPerThread));
}

TEST_F(ProfilerTest, SnapshotWhileOtherThreadsProfile) {
  // snapshot() is documented safe while other threads are between scopes;
  // hammer it concurrently with scope traffic and require no crash and a
  // full merge after join.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> iterations{0};
  std::thread worker([&] {
    while (!stop.load()) {
      Scope s("concurrent");
      iterations.fetch_add(1);
    }
  });
  // Snapshot concurrently until the worker has provably run some scopes
  // (on a single-core host it may not be scheduled immediately).
  while (iterations.load() < 100) (void)obs::prof::snapshot();
  stop.store(true);
  worker.join();
  const obs::prof::Report r = obs::prof::snapshot();
  EXPECT_GE(r.root.children.at("concurrent").count, 1u);
}

TEST(ProfilerDisabled, ScopeOnDisabledPathAllocatesNothing) {
  obs::prof::disable();
  // Warm up any lazy TLS the counter read itself may touch.
  (void)obs::prof::threadAllocCount();
  const std::uint64_t before = obs::prof::threadAllocCount();
  for (int i = 0; i < 1000; ++i) {
    Scope s("never-recorded");
    obs::prof::addSample("nothing", 1);
  }
  EXPECT_EQ(obs::prof::threadAllocCount(), before);
  // And nothing was recorded.
  EXPECT_TRUE(obs::prof::snapshot().root.children.empty());
}

TEST(ProfilerAllocCounters, CountUnconditionally) {
  // The operator-new hook counts even when profiling is disabled, so the
  // zero-allocation assertion above is meaningful.
  obs::prof::disable();
  const std::uint64_t c0 = obs::prof::threadAllocCount();
  const std::uint64_t b0 = obs::prof::threadAllocBytes();
  // Call the replaced operator directly: the compiler may elide a paired
  // new/delete *expression*, but not a direct call to ::operator new.
  void* p = ::operator new(4096);
  ::operator delete(p);
  EXPECT_GT(obs::prof::threadAllocCount(), c0);
  EXPECT_GE(obs::prof::threadAllocBytes(), b0 + 4096);
}

TEST_F(ProfilerTest, ScopesAttributeAllocations) {
  {
    Scope s("allocating");
    for (int i = 0; i < 10; ++i) {
      void* p = ::operator new(1024);  // direct call: never elided
      ::operator delete(p);
    }
  }
  const obs::prof::Report r = obs::prof::snapshot();
  const obs::prof::Node& n = r.root.children.at("allocating");
  EXPECT_GE(n.alloc_count, 10u);
  EXPECT_GE(n.alloc_bytes, 10u * 1024u);
}

TEST_F(ProfilerTest, AddSampleNestsUnderCurrentScope) {
  {
    Scope s("event-loop");
    obs::prof::addSample("destage-drain", 1'000'000);
  }
  obs::prof::addSample("top-level-sample", 2'000'000);
  const obs::prof::Report r = obs::prof::snapshot();
  const obs::prof::Node& loop = r.root.children.at("event-loop");
  ASSERT_EQ(loop.children.count("destage-drain"), 1u);
  EXPECT_EQ(loop.children.at("destage-drain").wall_ns, 1'000'000u);
  ASSERT_EQ(r.root.children.count("top-level-sample"), 1u);
  EXPECT_EQ(r.root.children.at("top-level-sample").wall_ns, 2'000'000u);
}

TEST_F(ProfilerTest, PoolStatsAggregate) {
  obs::prof::notePool(/*threads=*/2, /*lifetime_ns=*/2'000'000,
                      /*busy_ns=*/1'500'000, /*tasks=*/10);
  obs::prof::notePool(4, 4'000'000, 500'000, 5);
  const obs::prof::Report r = obs::prof::snapshot();
  EXPECT_EQ(r.pool_threads, 4u);
  EXPECT_EQ(r.pool_lifetime_ns, 6'000'000u);
  EXPECT_EQ(r.pool_busy_ns, 2'000'000u);
  EXPECT_EQ(r.pool_tasks, 15u);
  EXPECT_NEAR(r.poolUtilization(), 2.0 / 6.0, 1e-9);
}

TEST_F(ProfilerTest, ForEachIndexReportsUtilization) {
  util::ParallelExecutor(2).forEachIndex(6, [](std::size_t) { spin(100'000); });
  const obs::prof::Report r = obs::prof::snapshot();
  EXPECT_EQ(r.pool_threads, 2u);
  EXPECT_EQ(r.pool_tasks, 6u);
  EXPECT_GE(r.pool_busy_ns, 6u * 100'000u);
  EXPECT_LE(r.pool_busy_ns, r.pool_lifetime_ns);
}

TEST_F(ProfilerTest, PublishMetricsUsesDocumentedNames) {
  {
    Scope s("event-loop");
    obs::prof::addSample("destage-drain", 1'000);
  }
  obs::prof::notePool(2, 2'000'000, 1'000'000, 4);
  obs::MetricsRegistry reg;
  obs::prof::publishMetrics(obs::prof::snapshot(), reg);
  // The names docs/OBSERVABILITY.md documents and check_docs_links.sh greps.
  EXPECT_TRUE(reg.has("profile.phase.event_loop.wall_ms"));
  EXPECT_TRUE(reg.has("profile.phase.event_loop.count"));
  EXPECT_TRUE(reg.has("profile.phase.event_loop.allocs"));
  EXPECT_TRUE(reg.has("profile.phase.event_loop.destage_drain.wall_ms"));
  EXPECT_TRUE(reg.has("profile.peak_rss_bytes"));
  EXPECT_TRUE(reg.has("profile.pool.threads"));
  EXPECT_TRUE(reg.has("profile.pool.busy_ms"));
  EXPECT_TRUE(reg.has("profile.pool.idle_ms"));
  EXPECT_TRUE(reg.has("profile.pool.utilization"));
  EXPECT_TRUE(reg.has("profile.pool.tasks"));
  EXPECT_FALSE(reg.has("profile.pool.steals"));
  EXPECT_NEAR(reg.gaugeValue("profile.pool.utilization"), 0.5, 1e-9);
}

TEST_F(ProfilerTest, ReportJsonCarriesSchema) {
  { Scope s("phase"); }
  const std::string json = obs::prof::reportJson(obs::prof::snapshot());
  EXPECT_NE(json.find("\"schema\":\"nwc-profile-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"host\""), std::string::npos);
  EXPECT_NE(json.find("\"dirty\":"), std::string::npos);
}

// The key byte-identity contract at library level: identical simulated
// results and metric exports whether the profiler is on or off.
TEST(ProfilerByteIdentity, SimulatedOutputsUnchangedByProfiling) {
  machine::MachineConfig cfg;
  cfg.withSystem(machine::SystemKind::kNWCache, machine::Prefetch::kOptimal);
  cfg.seed = 0x5eed;

  auto runOnce = [&] {
    obs::MetricsRegistry reg;
    apps::ObsSinks sinks;
    sinks.registry = &reg;
    const apps::RunSummary s = apps::runApp(cfg, "radix", 0.05, sinks);
    EXPECT_TRUE(s.verified);
    return std::pair<sim::Tick, std::string>(s.exec_time, reg.toJson());
  };

  obs::prof::disable();
  obs::prof::reset();
  const auto off = runOnce();

  obs::prof::enable();
  obs::prof::reset();
  const auto on = runOnce();
  obs::prof::disable();
  obs::prof::reset();

  EXPECT_EQ(off.first, on.first);
  EXPECT_EQ(off.second, on.second);  // metrics JSON byte-identical
}

}  // namespace
}  // namespace nwc
