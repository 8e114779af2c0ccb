// Machine integration: fault paths, replacement, swap-out protocols, the
// NWCache victim-read path, TLB shootdown accounting, invariants, and the
// per-page residency masks that bound eviction-time cache invalidation.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/app_context.hpp"
#include "apps/registry.hpp"
#include "apps/workload.hpp"
#include "machine/machine.hpp"
#include "nwcache/interface.hpp"
#include "nwcache/optical_ring.hpp"

namespace nwc::machine {
namespace {

using sim::PageId;
using sim::Task;
using sim::Tick;

// A small machine that swaps early: 8 frames/node, 2 kept free.
MachineConfig tinyConfig(SystemKind sys, Prefetch pf) {
  MachineConfig c;
  c.withSystem(sys, pf);
  c.memory_per_node = 32 * 1024;  // 8 frames
  c.min_free_frames = 2;
  return c;
}

Task<> touchPages(Machine& m, int cpu, std::vector<PageId> pages, bool write) {
  for (PageId p : pages) {
    co_await m.access(cpu, static_cast<std::uint64_t>(p) * m.config().page_bytes, write);
  }
  co_await m.fence(cpu);
  m.cpuDone(cpu);
}

std::vector<PageId> range(PageId lo, PageId hi) {
  std::vector<PageId> v;
  for (PageId p = lo; p < hi; ++p) v.push_back(p);
  return v;
}

TEST(Machine, FirstAccessFaultsPageIn) {
  Machine m(tinyConfig(SystemKind::kStandard, Prefetch::kOptimal));
  m.allocRegion(64 * 4096);
  m.start();
  m.engine().spawn(touchPages(m, 0, {0}, false));
  m.engine().run();
  EXPECT_EQ(m.metrics().faults, 1u);
  EXPECT_EQ(m.pageTable().entry(0).state, vm::PageState::kResident);
  EXPECT_EQ(m.pageTable().entry(0).home, 0);
  EXPECT_TRUE(m.framePool(0).isResident(0));
  EXPECT_GT(m.metrics().cpu(0).fault, 0u);
  EXPECT_TRUE(m.checkInvariants().empty());
}

TEST(Machine, RepeatAccessesDoNotReFault) {
  Machine m(tinyConfig(SystemKind::kStandard, Prefetch::kOptimal));
  m.allocRegion(64 * 4096);
  m.start();
  m.engine().spawn(touchPages(m, 0, {3, 3, 3, 3, 3}, false));
  m.engine().run();
  EXPECT_EQ(m.metrics().faults, 1u);
  EXPECT_EQ(m.metrics().cpu(0).accesses, 5u);
}

TEST(Machine, RemoteResidentPageNeedsNoFault) {
  Machine m(tinyConfig(SystemKind::kStandard, Prefetch::kOptimal));
  m.allocRegion(64 * 4096);
  m.start();
  auto first = [&]() -> Task<> {
    co_await m.access(0, 0, false);
    co_await m.fence(0);
    m.cpuDone(0);
  };
  auto second = [&]() -> Task<> {
    co_await m.engine().delay(1000000);  // well after cpu 0's fault
    co_await m.access(1, 0, false);
    co_await m.fence(1);
    m.cpuDone(1);
  };
  m.engine().spawn(first());
  m.engine().spawn(second());
  m.engine().run();
  EXPECT_EQ(m.metrics().faults, 1u);
  EXPECT_EQ(m.pageTable().entry(0).home, 0);  // still homed at the fetcher
}

TEST(Machine, ConcurrentFaultersShareOneFetch) {
  Machine m(tinyConfig(SystemKind::kStandard, Prefetch::kNaive));
  m.allocRegion(64 * 4096);
  m.start();
  for (int cpu = 0; cpu < 4; ++cpu) {
    m.engine().spawn(touchPages(m, cpu, {7}, false));
  }
  m.engine().run();
  EXPECT_EQ(m.metrics().faults, 1u);
  EXPECT_GE(m.metrics().transit_waits, 3u);
  EXPECT_GT(m.metrics().totalTransit(), 0u);
}

TEST(Machine, ReadOnlyWorkloadEvictsCleanWithoutSwapOuts) {
  Machine m(tinyConfig(SystemKind::kStandard, Prefetch::kOptimal));
  m.allocRegion(64 * 4096);
  m.start();
  m.engine().spawn(touchPages(m, 0, range(0, 32), false));
  m.engine().run();
  EXPECT_EQ(m.metrics().swap_outs, 0u);
  EXPECT_GT(m.metrics().clean_evictions, 0u);
  EXPECT_TRUE(m.checkInvariants().empty());
}

TEST(Machine, DirtyWorkloadSwapsOut) {
  Machine m(tinyConfig(SystemKind::kStandard, Prefetch::kOptimal));
  m.allocRegion(64 * 4096);
  m.start();
  m.engine().spawn(touchPages(m, 0, range(0, 32), true));
  m.engine().run();
  EXPECT_GT(m.metrics().swap_outs, 0u);
  EXPECT_GT(m.metrics().swap_out_ticks.count(), 0u);
  EXPECT_GT(m.metrics().shootdowns, 0u);
  EXPECT_TRUE(m.checkInvariants().empty());
}

TEST(Machine, ShootdownChargesOtherProcessors) {
  Machine m(tinyConfig(SystemKind::kStandard, Prefetch::kOptimal));
  m.allocRegion(64 * 4096);
  m.start();
  // cpu 0 dirties enough pages to force swap-outs; cpu 1 keeps computing so
  // its interrupt penalties get flushed into its TLB time.
  auto busy = [&]() -> Task<> {
    for (int i = 0; i < 100; ++i) {
      m.compute(1, 1000);
      co_await m.fence(1);
    }
    m.cpuDone(1);
  };
  m.engine().spawn(touchPages(m, 0, range(0, 32), true));
  m.engine().spawn(busy());
  m.engine().run();
  ASSERT_GT(m.metrics().shootdowns, 0u);
  EXPECT_GT(m.metrics().cpu(1).tlb, 0u);
}

TEST(Machine, SwappedPageFaultsAgainAndHitsDiskCache) {
  Machine m(tinyConfig(SystemKind::kStandard, Prefetch::kNaive));
  m.allocRegion(64 * 4096);
  m.start();
  auto workload = [&]() -> Task<> {
    // Dirty pages 0..23 (forces eviction of page 0 on this 8-frame node),
    // then come back to page 0.
    for (PageId p : range(0, 24)) {
      co_await m.access(0, static_cast<std::uint64_t>(p) * 4096, true);
    }
    co_await m.access(0, 0, false);
    co_await m.fence(0);
    m.cpuDone(0);
  };
  m.engine().spawn(workload());
  m.engine().run();
  EXPECT_GE(m.metrics().faults, 25u);  // 24 cold + the re-fault
  EXPECT_TRUE(m.checkInvariants().empty());
}

TEST(Machine, StandardSystemNacksWhenControllerCacheFull) {
  Machine m(tinyConfig(SystemKind::kStandard, Prefetch::kOptimal));
  m.allocRegion(256 * 4096);
  m.start();
  // All 8 cpus dirty big disjoint ranges: 4-slot controller caches overflow.
  for (int cpu = 0; cpu < 8; ++cpu) {
    m.engine().spawn(touchPages(m, cpu, range(cpu * 32, cpu * 32 + 32), true));
  }
  m.engine().run();
  EXPECT_GT(m.metrics().nacks, 0u);
  EXPECT_TRUE(m.checkInvariants().empty());
}

TEST(Machine, NwcacheSwapOutsAvoidNacksAndMesh) {
  Machine std_m(tinyConfig(SystemKind::kStandard, Prefetch::kOptimal));
  Machine nwc_m(tinyConfig(SystemKind::kNWCache, Prefetch::kOptimal));
  for (Machine* m : {&std_m, &nwc_m}) {
    m->allocRegion(256 * 4096);
    m->start();
    for (int cpu = 0; cpu < 8; ++cpu) {
      m->engine().spawn(touchPages(*m, cpu, range(cpu * 32, cpu * 32 + 32), true));
    }
    m->engine().run();
    EXPECT_TRUE(m->checkInvariants().empty());
  }
  EXPECT_EQ(nwc_m.metrics().nacks, 0u);
  ASSERT_GT(nwc_m.metrics().swap_out_ticks.count(), 0u);
  ASSERT_GT(std_m.metrics().swap_out_ticks.count(), 0u);
  // Write staging: the typical (median) ring swap-out completes orders of
  // magnitude faster than the typical disk swap-out. (Means are compared in
  // the application-level shape test: this saturated microworkload keeps
  // every drain path disk-bound, which inflates the ring tail.)
  EXPECT_LT(nwc_m.metrics().swap_out_hist.quantileUpperBound(0.5) * 10,
            std_m.metrics().swap_out_hist.quantileUpperBound(0.5));
  // Contention: no swap-out page data crosses the mesh on the NWCache system.
  EXPECT_EQ(nwc_m.mesh().bytes(net::TrafficClass::kSwapOut), 0u);
  EXPECT_GT(std_m.mesh().bytes(net::TrafficClass::kSwapOut), 0u);
}

TEST(Machine, VictimReadHitsTheRing) {
  // White-box: place page 5 on node 0's cache channel (as a completed ring
  // swap-out would), then fault it from node 3. The fault must come off the
  // ring, not the disk, and the swapper's channel slot must free.
  Machine m(tinyConfig(SystemKind::kNWCache, Prefetch::kNaive));
  m.allocRegion(64 * 4096);
  m.start();
  const PageId page = 5;
  auto& e = m.pageTable().entry(page);
  m.ring()->reserve(0);
  m.ring()->insert(0, page);
  e.ring_channel = 0;
  e.last_translation = 0;
  e.dirty = true;
  m.pageTable().setState(page, vm::PageState::kRing);
  // No interface FIFO record: the drain loop has not reached this page, as
  // during a real burst. The victim-read notify must still free the slot.

  m.engine().spawn(touchPages(m, 3, {page}, false));
  m.engine().run();

  EXPECT_EQ(m.metrics().ring_read_hits.hits(), 1u);
  EXPECT_EQ(m.metrics().disk_cache_hits + m.metrics().disk_cache_misses, 0u);
  EXPECT_EQ(m.pageTable().entry(page).state, vm::PageState::kResident);
  EXPECT_EQ(m.pageTable().entry(page).home, 3);
  EXPECT_TRUE(m.pageTable().entry(page).dirty);  // never reached the disk
  EXPECT_EQ(m.ring()->totalOccupancy(), 0);      // slot released via ACK
  EXPECT_EQ(m.nwcFifos(m.pfs().diskOf(page)).totalSize(), 0);
  EXPECT_TRUE(m.checkInvariants().empty());
}

TEST(Machine, RingPagesSurviveUnderDrainPressureAndServeVictimReads) {
  // End-to-end victim caching: all cpus generate dirty evictions so the
  // controller caches stay busy; recently swapped pages are still on the
  // ring when their node comes back for them.
  Machine m(tinyConfig(SystemKind::kNWCache, Prefetch::kOptimal));
  m.allocRegion(256 * 4096);
  m.start();
  auto workload = [&](int cpu) -> Task<> {
    const PageId base = cpu * 32;
    for (int sweep = 0; sweep < 4; ++sweep) {
      for (PageId p : range(base, base + 24)) {
        co_await m.access(cpu, static_cast<std::uint64_t>(p) * 4096, true);
      }
    }
    co_await m.fence(cpu);
    m.cpuDone(cpu);
  };
  for (int cpu = 0; cpu < 8; ++cpu) m.engine().spawn(workload(cpu));
  m.engine().run();
  EXPECT_GT(m.metrics().ring_read_hits.hits(), 0u);
  EXPECT_TRUE(m.checkInvariants().empty());
}

TEST(Machine, VictimReadsDisabledFallBackToDisk) {
  MachineConfig cfg = tinyConfig(SystemKind::kNWCache, Prefetch::kNaive);
  cfg.ring_victim_reads = false;
  Machine m(cfg);
  m.allocRegion(64 * 4096);
  m.start();
  auto workload = [&]() -> Task<> {
    for (PageId p : range(0, 12)) {
      co_await m.access(0, static_cast<std::uint64_t>(p) * 4096, true);
    }
    for (PageId p : range(0, 4)) {
      co_await m.access(0, static_cast<std::uint64_t>(p) * 4096, false);
    }
    co_await m.fence(0);
    m.cpuDone(0);
  };
  m.engine().spawn(workload());
  m.engine().run();
  EXPECT_EQ(m.metrics().ring_read_hits.hits(), 0u);
  EXPECT_TRUE(m.checkInvariants().empty());
}

TEST(Machine, RingDrainsToDiskWhenIdle) {
  Machine m(tinyConfig(SystemKind::kNWCache, Prefetch::kOptimal));
  m.allocRegion(64 * 4096);
  m.start();
  m.engine().spawn(touchPages(m, 0, range(0, 32), true));
  m.engine().run();
  // After quiescence every swapped page must have drained off the ring.
  EXPECT_EQ(m.ring()->totalOccupancy(), 0);
  EXPECT_EQ(m.pageTable().countInState(vm::PageState::kRing), 0);
  EXPECT_GT(m.metrics().write_combining.count(), 0u);
  EXPECT_TRUE(m.checkInvariants().empty());
}

TEST(Machine, OptimalPrefetchAlwaysHitsControllerCache) {
  Machine m(tinyConfig(SystemKind::kStandard, Prefetch::kOptimal));
  m.allocRegion(64 * 4096);
  m.start();
  m.engine().spawn(touchPages(m, 0, range(0, 20), false));
  m.engine().run();
  EXPECT_EQ(m.metrics().disk_cache_misses, 0u);
  EXPECT_EQ(m.metrics().disk_cache_hits, 20u);
}

TEST(Machine, NaivePrefetchMissesColdAndPrefetchesSequentially) {
  Machine m(tinyConfig(SystemKind::kStandard, Prefetch::kNaive));
  m.allocRegion(64 * 4096);
  m.start();
  // Pages 0,1,2,3 live in the same group on disk 0: the miss on page 0
  // prefetches its successors.
  m.engine().spawn(touchPages(m, 0, {0, 1, 2, 3}, false));
  m.engine().run();
  EXPECT_EQ(m.metrics().disk_cache_misses, 1u);
  EXPECT_EQ(m.metrics().disk_cache_hits, 3u);
}

TEST(Machine, FaultLatencyNaiveMissIsMsScale) {
  Machine m(tinyConfig(SystemKind::kStandard, Prefetch::kNaive));
  m.allocRegion(64 * 4096);
  m.start();
  m.engine().spawn(touchPages(m, 0, {0}, false));
  m.engine().run();
  // A cold naive read pays seek + rotation + transfer: >= ~0.04 ms floor,
  // typically several hundred Kpcycles.
  EXPECT_GT(m.metrics().fault_ticks.mean(), 40000.0);
}

TEST(Machine, FaultLatencyOptimalHitIsKpcycleScale) {
  Machine m(tinyConfig(SystemKind::kStandard, Prefetch::kOptimal));
  m.allocRegion(64 * 4096);
  m.start();
  m.engine().spawn(touchPages(m, 0, {0}, false));
  m.engine().run();
  // Paper: ~6 Kpcycles uncontended; our path is within a small factor.
  EXPECT_LT(m.metrics().fault_ticks.mean(), 20000.0);
  EXPECT_GT(m.metrics().fault_ticks.mean(), 2000.0);
}

TEST(Machine, DeterministicForSameSeed) {
  auto run = [] {
    Machine m(tinyConfig(SystemKind::kNWCache, Prefetch::kNaive));
    m.allocRegion(64 * 4096);
    m.start();
    for (int cpu = 0; cpu < 4; ++cpu) {
      m.engine().spawn(touchPages(m, cpu, range(cpu * 16, cpu * 16 + 16), true));
    }
    m.engine().run();
    return std::make_pair(m.engine().now(), m.engine().eventsProcessed());
  };
  EXPECT_EQ(run(), run());
}

TEST(Machine, AllocRegionIsPageAligned) {
  Machine m(tinyConfig(SystemKind::kStandard, Prefetch::kOptimal));
  const auto a = m.allocRegion(100);   // rounds up to 1 page
  const auto b = m.allocRegion(5000);  // 2 pages
  const auto c = m.allocRegion(1);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 4096u);
  EXPECT_EQ(c, 3u * 4096u);
  EXPECT_EQ(m.numPages(), 4);
}

TEST(Machine, WriteBufferAbsorbsWritesWithoutStall) {
  Machine m(tinyConfig(SystemKind::kStandard, Prefetch::kOptimal));
  m.allocRegion(4 * 4096);
  m.start();
  auto workload = [&]() -> Task<> {
    co_await m.access(0, 0, false);  // fault the page in
    const Tick t0 = m.engine().now();
    // A few spaced writes to one resident page ride the write buffer.
    for (int i = 0; i < 4; ++i) {
      co_await m.access(0, static_cast<std::uint64_t>(i) * 64, true);
    }
    co_await m.fence(0);
    // Only pipeline + quantum costs: far below any bus serialization stall.
    EXPECT_LT(m.engine().now() - t0, 500u);
    m.cpuDone(0);
  };
  m.engine().spawn(workload());
  m.engine().run();
}

// Forwards to a workload and hands the drained machine to `probe` from
// verify(), which the runner calls while the machine is still alive.
class ProbedWorkload final : public apps::WorkloadSource {
 public:
  ProbedWorkload(std::unique_ptr<apps::WorkloadSource> inner,
                 std::function<void(Machine&)> probe)
      : inner_(std::move(inner)), probe_(std::move(probe)) {}

  std::string name() const override { return inner_->name(); }
  void setup(apps::AppContext& ctx) override {
    machine_ = &ctx.machine();
    inner_->setup(ctx);
  }
  Task<> drive(apps::AppContext& ctx, int cpu) override {
    return inner_->drive(ctx, cpu);
  }
  bool verify() const override {
    probe_(*machine_);
    return inner_->verify();
  }
  std::uint64_t dataBytes() const override { return inner_->dataBytes(); }

 private:
  std::unique_ptr<apps::WorkloadSource> inner_;
  std::function<void(Machine&)> probe_;
  Machine* machine_ = nullptr;
};

bool pageInCache(const mem::SetAssocCache& c, std::uint64_t base,
                 std::uint64_t page_bytes) {
  for (std::uint64_t a = base; a < base + page_bytes; a += c.lineBytes()) {
    if (c.contains(a)) return true;
  }
  return false;
}

TEST(Machine, ResidencyMaskCoversEveryCachedLine) {
  for (const auto sys : {SystemKind::kStandard, SystemKind::kNWCache}) {
    MachineConfig c;
    c.withSystem(sys, Prefetch::kOptimal);
    c.memory_per_node = 16 * 1024;  // paging-bound
    std::uint64_t pairs = 0;
    std::uint64_t masked_pairs = 0;
    std::uint64_t cached_pairs = 0;
    std::uint64_t stray_pairs = 0;  // cached outside the mask
    std::string first_stray;
    auto probe = [&](Machine& m) {
      const std::uint64_t pb = m.config().page_bytes;
      for (PageId p = 0; p < m.numPages(); ++p) {
        const std::uint64_t mask = m.pageTable().entry(p).cached_on;
        const std::uint64_t base = static_cast<std::uint64_t>(p) * pb;
        for (int n = 0; n < m.config().num_nodes; ++n) {
          const bool cached =
              pageInCache(m.l1(n), base, pb) || pageInCache(m.l2(n), base, pb);
          ++pairs;
          if (mask & (std::uint64_t{1} << n)) {
            ++masked_pairs;
          } else if (cached && stray_pairs++ == 0) {
            first_stray = "page " + std::to_string(p) + " on node " + std::to_string(n);
          }
          if (cached) ++cached_pairs;
        }
      }
    };
    const apps::AppInfo* info = apps::findApp("radix");
    ASSERT_NE(info, nullptr);
    ProbedWorkload src(
        std::make_unique<apps::KernelWorkload>(info->name, info->make(0.02)), probe);
    const apps::RunSummary s = apps::runWorkload(c, src, apps::ObsSinks{});
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(stray_pairs, 0u) << "first: " << first_stray;
    EXPECT_GT(s.metrics.swap_outs + s.metrics.clean_evictions, 1000u);
    // Not vacuous: pages are still cached somewhere, and masks are sparse.
    EXPECT_GT(cached_pairs, 0u);
    EXPECT_GT(masked_pairs, 0u);
    EXPECT_LT(masked_pairs, pairs);
  }
}

TEST(Machine, BlockServingLeavesResidencyMasksEmpty) {
  MachineConfig c;
  c.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
  auto probe = [](Machine& m) {
    for (PageId p = 0; p < m.numPages(); ++p) {
      EXPECT_EQ(m.pageTable().entry(p).cached_on, 0u) << "page " << p;
    }
  };
  ProbedWorkload src(
      apps::makeWorkload("synth:clients=8;objects=4096;ops=2000;seed=31337", 0.25),
      probe);
  const apps::RunSummary s = apps::runWorkload(c, src, apps::ObsSinks{});
  EXPECT_TRUE(s.ok());
  EXPECT_GT(s.metrics.swap_outs + s.metrics.clean_evictions, 0u);
}

TEST(Machine, PageEntryResetClearsResidencyMask) {
  sim::Engine eng;
  vm::PageEntry e(eng);
  e.cached_on = 0b1011;
  e.reset(eng);
  EXPECT_EQ(e.cached_on, 0u);
}

}  // namespace
}  // namespace nwc::machine
