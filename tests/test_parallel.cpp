// ParallelExecutor + ProgressMeter: index coverage and order, thread
// count, exception propagation, the utilization observer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace nwc::util {
namespace {

TEST(ResolveJobs, ZeroIsAutoAndPositivePassesThrough) {
  EXPECT_GE(resolveJobs(0), 1u);
  EXPECT_EQ(resolveJobs(1), 1u);
  EXPECT_EQ(resolveJobs(7), 7u);
}

TEST(ParallelExecutor, CoversEveryIndexExactlyOnce) {
  ParallelExecutor exec(4);
  std::vector<std::atomic<int>> hits(100);
  exec.forEachIndex(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelExecutor, SingleJobRunsInlineInIndexOrder) {
  ParallelExecutor exec(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  exec.forEachIndex(10, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expect(10);
  std::iota(expect.begin(), expect.end(), std::size_t{0});
  EXPECT_EQ(order, expect);
}

TEST(ParallelExecutor, RethrowsTheLowestIndexException) {
  ParallelExecutor exec(4);
  try {
    exec.forEachIndex(16, [](std::size_t i) {
      if (i == 3 || i == 11) {
        throw std::runtime_error("index " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& ex) {
    EXPECT_STREQ(ex.what(), "index 3");
  }
}

TEST(ParallelExecutor, StopsClaimingIndicesAfterAThrow) {
  // One worker claims in index order, so nothing after the throw runs:
  // the same as a serial loop.
  ParallelExecutor exec(1);
  std::vector<std::size_t> ran;
  EXPECT_THROW(exec.forEachIndex(10,
                                 [&](std::size_t i) {
                                   ran.push_back(i);
                                   if (i == 4) throw std::runtime_error("stop");
                                 }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelExecutor, NeverUsesMoreThreadsThanJobsOrIndices) {
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
      std::mutex mu;
      std::set<std::thread::id> seen;
      ParallelExecutor(jobs).forEachIndex(n, [&](std::size_t) {
        // Hold each index briefly so every started worker gets to claim one.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::lock_guard<std::mutex> lk(mu);
        seen.insert(std::this_thread::get_id());
      });
      EXPECT_GE(seen.size(), 1u);
      EXPECT_LE(seen.size(), std::min<std::size_t>(jobs, n))
          << "jobs=" << jobs << " n=" << n;
    }
  }
}

ParallelStats g_last_stats;
int g_observed = 0;

void recordStats(const ParallelStats& s) {
  g_last_stats = s;
  ++g_observed;
}

TEST(ParallelExecutor, ObserverSeesEveryTaskAndBoundedBusyTime) {
  setParallelObserver(&recordStats);
  g_observed = 0;
  ParallelExecutor(4).forEachIndex(40, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  });
  ParallelExecutor(1).forEachIndex(0, [](std::size_t) {});  // nothing to report
  setParallelObserver(nullptr);
  ASSERT_EQ(g_observed, 1);
  EXPECT_EQ(g_last_stats.tasks, 40u);
  EXPECT_EQ(g_last_stats.threads, 4u);
  EXPECT_GT(g_last_stats.busy_ns, 0u);
  EXPECT_LE(g_last_stats.busy_ns,
            static_cast<std::uint64_t>(g_last_stats.threads) * g_last_stats.lifetime_ns);
}

TEST(ParallelExecutor, EmptyRangeIsANoOp) {
  ParallelExecutor exec(4);
  bool called = false;
  exec.forEachIndex(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ProgressMeter, CountsAndReportsPassFailWithPrefix) {
  std::ostringstream out;
  ProgressMeter meter(3, &out);
  meter.completed("a", true);
  meter.completed("b", false);
  meter.completed("c", true);
  EXPECT_EQ(meter.done(), 3u);
  const std::string s = out.str();
  EXPECT_NE(s.find("[1/3] a: ok"), std::string::npos);
  EXPECT_NE(s.find("[2/3] b: FAIL"), std::string::npos);
  EXPECT_NE(s.find("[3/3] c: ok"), std::string::npos);
}

TEST(ProgressMeter, NullStreamOnlyCounts) {
  ProgressMeter meter(2, nullptr);
  meter.completed("a", true);
  EXPECT_EQ(meter.done(), 1u);
}

}  // namespace
}  // namespace nwc::util
