// Extension: machine-size scaling. The paper's conclusion argues the
// NWCache suits small-to-medium machines today and larger ones as optics
// get cheaper (4n optical components, n channels). Sweep the node count and
// watch whether the benefit persists as I/O pressure per disk grows.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace nwc;
  auto opt = bench::parseArgs(argc, argv, "sweep_nodes", 1.0, {"sor", "mg"});

  std::printf("Machine-size sweep under optimal prefetching (execution time in "
              "Mpcycles, scale=%.2f)\n", opt.scale);

  struct Shape {
    int nodes;
    int io;
  };
  const Shape shapes[] = {{4, 2}, {8, 4}, {16, 4}};

  std::vector<apps::GridCell> plan;
  for (const std::string& app : bench::appList(opt)) {
    for (const Shape& sh : shapes) {
      for (auto sys : {machine::SystemKind::kStandard, machine::SystemKind::kNWCache}) {
        machine::MachineConfig cfg =
            bench::configFor(sys, machine::Prefetch::kOptimal, opt);
        cfg.num_nodes = sh.nodes;
        cfg.num_io_nodes = sh.io;
        cfg.ring_channels = sh.nodes;
        plan.push_back({app, cfg});
      }
    }
  }
  const auto runs = apps::runGrid(plan, opt.grid());

  util::AsciiTable t({"Application", "Nodes", "I/O nodes", "Standard", "NWCache",
                      "Improvement"});
  std::vector<std::vector<std::string>> rows;

  std::size_t next = 0;
  for (const std::string& app : bench::appList(opt)) {
    for (const Shape& sh : shapes) {
      const double exec[2] = {static_cast<double>(runs[next].exec_time),
                              static_cast<double>(runs[next + 1].exec_time)};
      next += 2;  // standard, NWCache
      std::vector<std::string> row = {
          app,
          util::AsciiTable::fmtInt(sh.nodes),
          util::AsciiTable::fmtInt(sh.io),
          util::AsciiTable::fmt(exec[0] / 1e6),
          util::AsciiTable::fmt(exec[1] / 1e6),
          util::AsciiTable::fmtPct(1.0 - exec[1] / exec[0])};
      t.addRow(row);
      rows.push_back(row);
    }
  }
  bench::emit(opt, t, {"app", "nodes", "io_nodes", "standard_mpc", "nwcache_mpc",
                       "improvement"},
              rows);
  return 0;
}
