// Ablation (beyond the paper): which NWCache benefit matters?
//   full        = staging + victim reads + mesh bypass
//   no-victim   = faults never snoop the ring (wait for the drain instead)
//   no-bypass   = swap metadata charged as full page traffic on the mesh
//   staging-only= both of the above disabled
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace nwc;
  auto opt = bench::parseArgs(argc, argv, "ablation_features", 1.0, {"sor", "mg"});

  struct Variant {
    const char* name;
    bool victim;
    bool bypass;
  };
  const Variant variants[] = {
      {"full", true, true},
      {"no-victim", false, true},
      {"no-bypass", true, false},
      {"staging-only", false, false},
  };

  std::printf("NWCache feature ablation under optimal prefetching "
              "(execution time in Mpcycles, scale=%.2f)\n", opt.scale);

  std::vector<apps::GridCell> plan;
  for (const std::string& app : bench::appList(opt)) {
    plan.push_back({app, bench::configFor(machine::SystemKind::kStandard,
                                          machine::Prefetch::kOptimal, opt)});
    for (const Variant& v : variants) {
      machine::MachineConfig cfg = bench::configFor(machine::SystemKind::kNWCache,
                                                    machine::Prefetch::kOptimal, opt);
      cfg.ring_victim_reads = v.victim;
      cfg.ring_bypass_network = v.bypass;
      plan.push_back({app, cfg});
    }
  }
  const auto runs = apps::runGrid(plan, opt.grid());

  util::AsciiTable t({"Application", "standard", "full", "no-victim", "no-bypass",
                      "staging-only"});
  std::vector<std::vector<std::string>> rows;

  std::size_t next = 0;
  for (const std::string& app : bench::appList(opt)) {
    std::vector<std::string> row = {app};
    for (std::size_t c = 0; c <= std::size(variants); ++c) {  // standard + variants
      row.push_back(
          util::AsciiTable::fmt(static_cast<double>(runs[next++].exec_time) / 1e6));
    }
    t.addRow(row);
    rows.push_back(row);
  }
  bench::emit(opt, t, {"app", "standard", "full", "no_victim", "no_bypass",
                       "staging_only"},
              rows);
  return 0;
}
