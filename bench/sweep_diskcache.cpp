// Section 1/5 claim: "a standard multiprocessor often requires a huge
// amount of disk controller cache capacity to approach the performance of
// our system." Sweep the controller cache on the standard machine and
// compare against the NWCache machine with the paper's 16 KB caches.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace nwc;
  auto opt = bench::parseArgs(argc, argv, "sweep_diskcache", 1.0, {"sor", "mg"});

  const std::uint64_t sizes_kb[] = {16, 64, 256, 1024};

  std::printf("Disk-controller-cache sweep under optimal prefetching "
              "(execution time in Mpcycles, scale=%.2f)\n", opt.scale);

  std::vector<apps::GridCell> plan;
  for (const std::string& app : bench::appList(opt)) {
    for (std::uint64_t kb : sizes_kb) {
      machine::MachineConfig cfg = bench::configFor(machine::SystemKind::kStandard,
                                                    machine::Prefetch::kOptimal, opt);
      cfg.disk_cache_bytes = kb * 1024;
      plan.push_back({app, cfg});
    }
    plan.push_back({app, bench::configFor(machine::SystemKind::kNWCache,
                                          machine::Prefetch::kOptimal, opt)});
  }
  const auto runs = apps::runGrid(plan, opt.grid());

  util::AsciiTable t({"Application", "std 16K", "std 64K", "std 256K", "std 1M",
                      "NWCache 16K"});
  std::vector<std::vector<std::string>> rows;

  std::size_t next = 0;
  for (const std::string& app : bench::appList(opt)) {
    std::vector<std::string> row = {app};
    for (std::size_t c = 0; c <= std::size(sizes_kb); ++c) {  // standard sizes + NWCache
      row.push_back(
          util::AsciiTable::fmt(static_cast<double>(runs[next++].exec_time) / 1e6));
    }
    t.addRow(row);
    rows.push_back(row);
  }
  bench::emit(opt, t, {"app", "std_16k", "std_64k", "std_256k", "std_1m", "nwc_16k"},
              rows);
  std::printf("Paper shape: the standard machine needs a controller cache "
              "orders of magnitude larger than 16 KB to approach the "
              "NWCache machine.\n");
  return 0;
}
