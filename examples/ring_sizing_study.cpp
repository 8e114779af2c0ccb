// Ring sizing study: sweep the NWCache channel capacity (i.e. fiber length)
// and watch the trade-off the paper discusses in section 4 — more storage
// absorbs bigger swap bursts, but a longer ring raises the circulation
// latency paid by victim reads and interface drains.
//
//   ./ring_sizing_study [app] [scale] [--jobs=N]
//
// The five ring sizes are one apps::runGrid grid and run concurrently
// (--jobs=1 forces the serial order).
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
  std::string app = "sor";
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
    std::fprintf(stderr, "ring_sizing_study: %s\n", ex.what());
    return 2;
  }

  std::printf("NWCache ring sizing study: %s at scale %.2f\n"
              "(round-trip latency scales with per-channel capacity: the ring\n"
              "IS the storage medium)\n\n", app.c_str(), grid.scale);

  const std::vector<std::uint64_t> sizes_kb = {16, 32, 64, 128, 256};
  std::vector<apps::GridCell> cells;
  for (std::uint64_t kb : sizes_kb) {
    machine::MachineConfig cfg;
    cfg.withSystem(machine::SystemKind::kNWCache, machine::Prefetch::kOptimal);
    cfg.ring_channel_bytes = kb * 1024;
    // Fiber length (and thus circulation time) scales with capacity.
    cfg.ring_round_trip_us = 52.0 * static_cast<double>(kb) / 64.0;
    cells.push_back({app, cfg});
  }
  const std::vector<apps::RunSummary> runs = apps::runGrid(cells, grid);

  util::AsciiTable t({"Channel KB", "Pages/ch", "Round trip (us)", "Exec (Mpc)",
                      "Ring hit rate", "Avg swap-out (Kpc)"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const std::uint64_t kb = sizes_kb[i];
    const apps::RunSummary& s = runs[i];
    t.addRow({util::AsciiTable::fmtInt(static_cast<long long>(kb)),
              util::AsciiTable::fmtInt(static_cast<long long>(kb / 4)),
              util::AsciiTable::fmt(s.cfg.ring_round_trip_us),
              util::AsciiTable::fmt(static_cast<double>(s.exec_time) / 1e6),
              util::AsciiTable::fmtPct(s.metrics.ring_read_hits.rate()),
              util::AsciiTable::fmt(s.metrics.swap_out_ticks.mean() / 1e3)});
  }
  t.print(std::cout);
  return 0;
}
