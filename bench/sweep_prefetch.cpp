// Section 5 "Discussion": "We expect results for realistic and
// sophisticated prefetching techniques to lie between these two extremes."
// Sweep the hinted-prefetch accuracy from 0 (naive) to 1 (optimal) and
// watch the NWCache improvement interpolate between the two regimes.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace nwc;
  auto opt = bench::parseArgs(argc, argv, "sweep_prefetch", 1.0, {"sor", "mg"});

  const double accuracies[] = {0.0, 0.25, 0.5, 0.75, 1.0};

  std::printf("Prefetch-quality sweep (hinted policy; execution Mpcycles and "
              "NWCache improvement, scale=%.2f)\n", opt.scale);

  std::vector<apps::GridCell> plan;
  for (const std::string& app : bench::appList(opt)) {
    for (double acc : accuracies) {
      for (auto sys : {machine::SystemKind::kStandard, machine::SystemKind::kNWCache}) {
        machine::MachineConfig cfg =
            bench::configFor(sys, machine::Prefetch::kHinted, opt);
        cfg.hint_accuracy = acc;
        plan.push_back({app, cfg});
      }
    }
  }
  const auto runs = apps::runGrid(plan, opt.grid());

  util::AsciiTable t({"Application", "Hint accuracy", "Standard", "NWCache",
                      "Improvement"});
  std::vector<std::vector<std::string>> rows;

  std::size_t next = 0;
  for (const std::string& app : bench::appList(opt)) {
    for (double acc : accuracies) {
      const double exec[2] = {static_cast<double>(runs[next].exec_time),
                              static_cast<double>(runs[next + 1].exec_time)};
      next += 2;  // standard, NWCache
      std::vector<std::string> row = {
          app, util::AsciiTable::fmt(acc, 2), util::AsciiTable::fmt(exec[0] / 1e6),
          util::AsciiTable::fmt(exec[1] / 1e6),
          util::AsciiTable::fmtPct(1.0 - exec[1] / exec[0])};
      t.addRow(row);
      rows.push_back(row);
    }
  }
  bench::emit(opt, t, {"app", "hint_accuracy", "standard_mpc", "nwcache_mpc",
                       "improvement"},
              rows);
  std::printf("Expected shape: improvements grow monotonically-ish with hint\n"
              "accuracy, from the naive regime toward the optimal one.\n");
  return 0;
}
