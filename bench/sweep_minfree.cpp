// Section 5 paragraph 1: sensitivity to the minimum number of free page
// frames. The paper found NWCache machines are happiest with only 2 free
// frames while the standard machine under optimal prefetching wants ~12.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace nwc;
  auto opt = bench::parseArgs(argc, argv, "sweep_minfree", 1.0, {"sor", "mg"});

  const int min_frees[] = {2, 4, 8, 12, 16};

  std::printf("Min-free-frames sweep (execution time in Mpcycles, scale=%.2f)\n",
              opt.scale);

  std::vector<apps::GridCell> plan;
  for (const std::string& app : bench::appList(opt)) {
    for (auto sys : {machine::SystemKind::kStandard, machine::SystemKind::kNWCache}) {
      for (auto pf : {machine::Prefetch::kOptimal, machine::Prefetch::kNaive}) {
        for (int mf : min_frees) {
          machine::MachineConfig cfg = bench::configFor(sys, pf, opt);
          cfg.min_free_frames = mf;
          plan.push_back({app, cfg});
        }
      }
    }
  }
  const auto runs = apps::runGrid(plan, opt.grid());

  util::AsciiTable t({"Application", "System", "Prefetch", "mf=2", "mf=4", "mf=8",
                      "mf=12", "mf=16", "Best"});
  std::vector<std::vector<std::string>> rows;

  std::size_t next = 0;
  for (const std::string& app : bench::appList(opt)) {
    for (auto sys : {machine::SystemKind::kStandard, machine::SystemKind::kNWCache}) {
      for (auto pf : {machine::Prefetch::kOptimal, machine::Prefetch::kNaive}) {
        std::vector<std::string> row = {app, machine::toString(sys),
                                        machine::toString(pf)};
        double best = -1;
        int best_mf = 0;
        for (int mf : min_frees) {
          const double mpc = static_cast<double>(runs[next++].exec_time) / 1e6;
          row.push_back(util::AsciiTable::fmt(mpc));
          if (best < 0 || mpc < best) {
            best = mpc;
            best_mf = mf;
          }
        }
        row.push_back("mf=" + std::to_string(best_mf));
        t.addRow(row);
        rows.push_back(row);
      }
    }
  }
  bench::emit(opt, t,
              {"app", "system", "prefetch", "mf2", "mf4", "mf8", "mf12", "mf16",
               "best"},
              rows);
  std::printf("Paper shape: NWCache best at mf=2 everywhere; the standard "
              "machine under optimal prefetching prefers larger reserves.\n");
  return 0;
}
