// Related-work baseline (paper section 6): how does the NWCache compare
// against a DCD machine (Hu & Yang's Disk Caching Disk)? The paper argues
// the NWCache wins the read-back path against the DCD — this bench
// quantifies the claim.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace nwc;
  auto opt = bench::parseArgs(argc, argv, "baseline_dcd", 1.0, {"sor", "mg", "em3d"});

  const machine::SystemKind systems[] = {machine::SystemKind::kStandard,
                                         machine::SystemKind::kDCD,
                                         machine::SystemKind::kNWCache};

  std::vector<apps::GridCell> plan;
  for (auto pf : {machine::Prefetch::kOptimal, machine::Prefetch::kNaive}) {
    for (const std::string& app : bench::appList(opt)) {
      for (auto sys : systems) plan.push_back({app, bench::configFor(sys, pf, opt)});
    }
  }
  const auto runs = apps::runGrid(plan, opt.grid());

  std::size_t next = 0;
  for (auto pf : {machine::Prefetch::kOptimal, machine::Prefetch::kNaive}) {
    std::printf("Standard vs DCD vs NWCache under %s prefetching "
                "(execution Mpcycles / median swap-out Kpcycles, scale=%.2f)\n",
                machine::toString(pf), opt.scale);
    util::AsciiTable t({"Application", "std exec", "dcd exec", "nwc exec",
                        "std swap p50", "dcd swap p50", "nwc swap p50"});
    std::vector<std::vector<std::string>> rows;
    for (const std::string& app : bench::appList(opt)) {
      std::vector<std::string> row = {app};
      std::vector<std::string> swaps;
      for (std::size_t c = 0; c < std::size(systems); ++c) {
        const apps::RunSummary& s = runs[next++];
        row.push_back(util::AsciiTable::fmt(static_cast<double>(s.exec_time) / 1e6));
        swaps.push_back(util::AsciiTable::fmt(
            static_cast<double>(s.metrics.swap_out_hist.quantileUpperBound(0.5)) / 1e3));
      }
      row.insert(row.end(), swaps.begin(), swaps.end());
      t.addRow(row);
      rows.push_back(row);
    }
    bench::emit(opt, t,
                {"app", "std_exec_mpc", "dcd_exec_mpc", "nwc_exec_mpc",
                 "std_swap_p50_kpc", "dcd_swap_p50_kpc", "nwc_swap_p50_kpc"},
                rows);
    std::printf("\n");
  }
  std::printf("Expected shape: DCD fixes most of the standard machine's write\n"
              "stalls but loses the read-back path.\n");
  return 0;
}
