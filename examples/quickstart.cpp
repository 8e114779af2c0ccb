// Quickstart: run one of the paper's applications on both machines and
// print the headline comparison. The four configurations are one
// apps::runGrid grid and run concurrently (--jobs=1 forces the serial order).
//
//   ./quickstart [app] [scale] [--jobs=N]
//
// Apps: em3d fft gauss lu mg radix sor (default: mg, scale 1.0).
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/batch.hpp"
#include "apps/workload.hpp"
#include "util/ini.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace nwc;
  std::string app = "mg";
  apps::GridOptions grid;
  try {
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--jobs=", 0) == 0) {
        grid.jobs = static_cast<unsigned>(util::positiveFlag("--jobs", a.substr(7), true, 4096));
      } else if (positional == 0) {
        app = a;
        ++positional;
      } else if (positional == 1) {
        grid.scale = util::positiveFlag("scale", a, false, 1.0);
        ++positional;
      } else {
        throw std::invalid_argument("unexpected argument '" + a + "'");
      }
    }
    if (const std::string err = apps::workloadSpecError(app); !err.empty()) {
      throw std::invalid_argument(err);
    }
  } catch (const std::invalid_argument& ex) {
    std::fprintf(stderr, "quickstart: %s\n", ex.what());
    return 2;
  }

  std::printf("NWCache quickstart: %s at scale %.2f on an 8-node machine\n\n",
              app.c_str(), grid.scale);

  std::vector<apps::GridCell> cells;
  for (auto sys : {machine::SystemKind::kStandard, machine::SystemKind::kNWCache}) {
    for (auto pf : {machine::Prefetch::kOptimal, machine::Prefetch::kNaive}) {
      machine::MachineConfig cfg;
      cfg.withSystem(sys, pf);  // Table 1 defaults + the paper's best min-free
      cells.push_back({app, cfg});
    }
  }
  const std::vector<apps::RunSummary> runs = apps::runGrid(cells, grid);

  util::AsciiTable t({"System", "Prefetch", "Exec (Mpcycles)", "Faults",
                      "Swap-outs", "Avg swap-out (Kpc)", "Ring hits", "Verified"});
  for (const apps::RunSummary& s : runs) {
    t.addRow({machine::toString(s.cfg.system), machine::toString(s.cfg.prefetch),
              util::AsciiTable::fmt(static_cast<double>(s.exec_time) / 1e6),
              util::AsciiTable::fmtInt(static_cast<long long>(s.metrics.faults)),
              util::AsciiTable::fmtInt(static_cast<long long>(s.metrics.swap_outs)),
              util::AsciiTable::fmt(s.metrics.swap_out_ticks.mean() / 1e3),
              util::AsciiTable::fmtPct(s.metrics.ring_read_hits.rate()),
              s.ok() ? "yes" : "NO"});
  }
  t.print(std::cout);

  std::printf("\nThe NWCache machine wins mainly on swap-out staging: its pages\n"
              "park on the optical ring in ~5 Kpcycles instead of waiting for a\n"
              "mechanical disk write. See DESIGN.md for the full model.\n");
  return 0;
}
