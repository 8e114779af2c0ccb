// Applications: every app verifies numerically on every system/prefetch
// combination (parameterized), plus app-specific sanity checks.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "apps/app_context.hpp"
#include "apps/host_vector.hpp"
#include "apps/registry.hpp"
#include "apps/runner.hpp"

namespace nwc::apps {
namespace {

using machine::MachineConfig;
using machine::Prefetch;
using machine::SystemKind;

TEST(Registry, HasAllSevenPaperApps) {
  const auto& apps = appRegistry();
  ASSERT_EQ(apps.size(), 7u);
  const char* expected[] = {"em3d", "fft", "gauss", "lu", "mg", "radix", "sor"};
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(apps[i].name, expected[i]);
}

TEST(Registry, FindApp) {
  EXPECT_NE(findApp("radix"), nullptr);
  EXPECT_EQ(findApp("doom"), nullptr);
}

TEST(Registry, UnknownAppThrows) {
  MachineConfig cfg;
  EXPECT_THROW(runApp(cfg, "doom"), std::invalid_argument);
}

TEST(HostVector, NextRunReusesABigBlockZeroed) {
  constexpr std::size_t kBig = std::size_t{1} << 18;  // 2 MiB of doubles
  const double* first = nullptr;
  {
    HostVector<double> v(kBig, 1.0);
    first = v.data();
  }
  {
    HostVector<double> other(kBig / 2);  // another size: not that block
    EXPECT_NE(other.data(), first);
  }
  HostVector<double> w(kBig);
  EXPECT_EQ(w.data(), first);
  for (std::size_t i = 0; i < kBig; i += 4096) ASSERT_EQ(w[i], 0.0);
}

TEST(Registry, PaperDataSizesRoughlyMatchTable2) {
  // Table 2 sizes in MB: em3d 2.5, fft 3.1, gauss 2.3, lu 2.7, mg 2.4,
  // radix 2.6, sor 2.6. Our implementations must land within ~30%.
  const struct {
    const char* name;
    double mb;
  } expect[] = {{"em3d", 2.5}, {"fft", 3.1},  {"gauss", 2.3}, {"lu", 2.7},
                {"mg", 2.4},   {"radix", 2.6}, {"sor", 2.6}};
  for (const auto& ex : expect) {
    auto app = findApp(ex.name)->make(1.0);
    // dataBytes needs ncpus: run setup on a machine-backed context.
    machine::MachineConfig cfg;
    machine::Machine m(cfg);
    AppContext ctx(m);
    app->setup(ctx);
    const double mb = static_cast<double>(app->dataBytes()) / (1024.0 * 1024.0);
    EXPECT_GT(mb, ex.mb * 0.68) << ex.name;
    EXPECT_LT(mb, ex.mb * 1.32) << ex.name;
  }
}

struct Combo {
  std::string app;
  SystemKind sys;
  Prefetch pf;
};

class AppCombo : public ::testing::TestWithParam<Combo> {};

TEST_P(AppCombo, VerifiesAtSmallScale) {
  const Combo& c = GetParam();
  MachineConfig cfg;
  cfg.withSystem(c.sys, c.pf);
  // Shrink memory so even small inputs page: 16 frames per node.
  cfg.memory_per_node = 64 * 1024;
  cfg.min_free_frames = c.sys == SystemKind::kNWCache ? 2 : 4;
  RunSummary s = runApp(cfg, c.app, 0.12);
  EXPECT_TRUE(s.verified) << c.app << " numerical check failed";
  EXPECT_EQ(s.invariant_violations, "") << c.app;
  EXPECT_GT(s.exec_time, 0u);
  EXPECT_GT(s.metrics.faults, 0u);  // the workload must actually page
}

std::vector<Combo> allCombos() {
  std::vector<Combo> v;
  for (const auto& a : appRegistry()) {
    for (SystemKind s : {SystemKind::kStandard, SystemKind::kNWCache}) {
      for (Prefetch p : {Prefetch::kOptimal, Prefetch::kNaive}) {
        v.push_back({a.name, s, p});
      }
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(AllAppsAllSystems, AppCombo, ::testing::ValuesIn(allCombos()),
                         [](const ::testing::TestParamInfo<Combo>& info) {
                           return info.param.app + "_" +
                                  machine::toString(info.param.sys) + "_" +
                                  machine::toString(info.param.pf);
                         });

TEST(AppRuns, DeterministicForSeed) {
  MachineConfig cfg;
  cfg.withSystem(SystemKind::kNWCache, Prefetch::kNaive);
  cfg.memory_per_node = 64 * 1024;
  const RunSummary a = runApp(cfg, "radix", 0.1);
  const RunSummary b = runApp(cfg, "radix", 0.1);
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.engine_events, b.engine_events);
  EXPECT_EQ(a.metrics.faults, b.metrics.faults);
}

TEST(AppRuns, SeedChangesTimingNotResult) {
  MachineConfig cfg;
  cfg.withSystem(SystemKind::kStandard, Prefetch::kNaive);
  cfg.memory_per_node = 64 * 1024;
  cfg.min_free_frames = 4;
  RunSummary a = runApp(cfg, "sor", 0.1);
  cfg.seed = 0xDEADBEEF;
  RunSummary b = runApp(cfg, "sor", 0.1);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  EXPECT_NE(a.exec_time, b.exec_time);  // rotational draws differ
}

TEST(AppRuns, NwcacheNeverSendsSwapPagesOverTheMesh) {
  MachineConfig cfg;
  cfg.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
  cfg.memory_per_node = 32 * 1024;  // 8 frames: guaranteed paging
  cfg.min_free_frames = 2;
  const RunSummary s = runApp(cfg, "sor", 0.5);
  EXPECT_TRUE(s.verified);
  EXPECT_GT(s.metrics.swap_outs, 0u);
  EXPECT_EQ(s.metrics.nacks, 0u);
}

TEST(AppRuns, MidScaleSorShapeMatchesPaper) {
  // The headline result at a reduced input: under optimal prefetching the
  // NWCache machine must beat the standard machine, and its swap-outs must
  // be at least an order of magnitude faster.
  MachineConfig std_cfg, nwc_cfg;
  std_cfg.withSystem(SystemKind::kStandard, Prefetch::kOptimal);
  std_cfg.memory_per_node = 64 * 1024;  // 0.5-scale SOR (~0.65 MB) must page
  nwc_cfg.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
  nwc_cfg.memory_per_node = 64 * 1024;
  const RunSummary std_s = runApp(std_cfg, "sor", 0.5);
  const RunSummary nwc_s = runApp(nwc_cfg, "sor", 0.5);
  ASSERT_TRUE(std_s.verified);
  ASSERT_TRUE(nwc_s.verified);
  ASSERT_GT(std_s.metrics.swap_outs, 0u);
  EXPECT_LT(nwc_s.exec_time, std_s.exec_time);
  EXPECT_LT(nwc_s.metrics.swap_out_ticks.mean() * 10.0,
            std_s.metrics.swap_out_ticks.mean());
}

}  // namespace
}  // namespace nwc::apps
