// Cross-layer latency attribution: the conservation invariant (attributed
// stage ticks sum EXACTLY to end-to-end latency on every operation), the
// aggregate bookkeeping, and determinism of the attr.* export under
// parallel execution.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "machine/config.hpp"
#include "obs/attribution.hpp"
#include "obs/registry.hpp"
#include "util/parallel.hpp"

namespace nwc {
namespace {

machine::MachineConfig smallConfig(machine::SystemKind sys, machine::Prefetch pf) {
  machine::MachineConfig cfg;
  cfg.withSystem(sys, pf);
  cfg.memory_per_node = 32 * 1024;
  return cfg;
}

// Runs an app and checks the accountant: every record conserved (checked by
// AttrAccountant::record itself, see RejectsNonConservingRecord) and the
// groups partitioning the records with matching tick sums.
void checkConservation(const machine::MachineConfig& cfg, const std::string& app) {
  const apps::RunSummary s = apps::runApp(cfg, app, 0.05);
  ASSERT_TRUE(s.ok()) << s.invariant_violations;

  const obs::AttrAccountant& attr = s.metrics.attr;
  EXPECT_EQ(attr.conservationViolations(), 0u) << attr.firstViolation();
  EXPECT_GT(attr.records(), 0u);

  std::uint64_t group_count = 0;
  for (int op = 0; op < obs::kNumAttrOps; ++op) {
    for (int oc = 0; oc < obs::kNumAttrOutcomes; ++oc) {
      const obs::AttrGroup& g = attr.group(static_cast<obs::AttrOp>(op),
                                           static_cast<obs::AttrOutcome>(oc));
      group_count += g.count;
      std::uint64_t stage_ticks = 0;
      for (const auto& st : g.stages) {
        stage_ticks += static_cast<std::uint64_t>(st.total());
      }
      EXPECT_EQ(stage_ticks, g.end_to_end_ticks)
          << "group op=" << op << " outcome=" << oc;
    }
  }
  EXPECT_EQ(group_count, attr.records());

  // Every fault the machine counted was attributed (faults land in one of
  // the four fault outcomes).
  std::uint64_t fault_count = 0;
  for (int oc = 0; oc < obs::kNumAttrOutcomes; ++oc) {
    fault_count +=
        attr.group(obs::AttrOp::kFault, static_cast<obs::AttrOutcome>(oc)).count;
  }
  EXPECT_EQ(fault_count, s.metrics.faults);
}

TEST(AttrConservation, NWCacheMachine) {
  checkConservation(
      smallConfig(machine::SystemKind::kNWCache, machine::Prefetch::kOptimal),
      "radix");
}

TEST(AttrConservation, NWCacheNaivePrefetch) {
  checkConservation(
      smallConfig(machine::SystemKind::kNWCache, machine::Prefetch::kNaive),
      "radix");
}

TEST(AttrConservation, StandardBaseline) {
  checkConservation(
      smallConfig(machine::SystemKind::kStandard, machine::Prefetch::kOptimal),
      "radix");
}

TEST(AttrAccountantUnit, RejectsNonConservingRecord) {
  obs::AttrAccountant acct;
  obs::AttrCtx ctx;
  ctx.add(obs::AttrStage::kMesh, 3, 7);
  acct.record(obs::AttrOp::kFault, obs::AttrOutcome::kPlatter, 10, ctx);
  EXPECT_EQ(acct.conservationViolations(), 0u);
  acct.record(obs::AttrOp::kFault, obs::AttrOutcome::kPlatter, 11, ctx);
  EXPECT_EQ(acct.conservationViolations(), 1u);
  EXPECT_NE(acct.firstViolation(), "");
  EXPECT_EQ(acct.records(), 2u);
}

TEST(AttrExport, DeterministicAcrossJobs) {
  // The attr.* instruments must serialize to identical bytes whether runs
  // execute serially or on four worker threads (same guarantee the batch
  // driver and CI golden rely on).
  const machine::MachineConfig cfg =
      smallConfig(machine::SystemKind::kNWCache, machine::Prefetch::kOptimal);

  auto attrJson = [&]() {
    obs::MetricsRegistry reg;
    apps::ObsSinks sinks;
    sinks.registry = &reg;
    apps::runApp(cfg, "radix", 0.05, sinks);
    std::string out;
    for (const std::string& name : reg.names()) {
      if (name.rfind("attr.", 0) != 0) continue;
      out += name;
      out += '=';
      if (reg.kindOf(name) == obs::InstrumentKind::kCounter) {
        out += std::to_string(reg.counterValue(name));
      } else if (reg.kindOf(name) == obs::InstrumentKind::kHistogram) {
        const auto& h = reg.histogramValue(name);
        out += std::to_string(h.count) + '/' + std::to_string(h.p50) + '/' +
               std::to_string(h.p99);
      }
      out += '\n';
    }
    return out;
  };

  const std::string serial = attrJson();
  EXPECT_NE(serial.find("attr.fault."), std::string::npos);
  EXPECT_NE(serial.find("attr.conservation_violations=0"), std::string::npos);

  std::vector<std::string> parallel(4);
  util::ParallelExecutor exec(4);
  exec.forEachIndex(parallel.size(),
                    [&](std::size_t i) { parallel[i] = attrJson(); });
  for (const std::string& p : parallel) EXPECT_EQ(p, serial);
}

}  // namespace
}  // namespace nwc
