// Trace analysis: record every page-grain event of a run on the event
// timeline and mine it — fault source mix, swap-out paths, page re-fault
// behaviour (reuse), inter-fault gaps, the hottest pages. For the same
// stream in Perfetto, run `nwcsim --timeline=FILE`.
//
//   ./trace_analysis [app] [scale] [standard|nwcache]
#include <cstdio>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "apps/runner.hpp"
#include "machine/config_io.hpp"
#include "obs/timeline.hpp"
#include "util/ini.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace nwc;
  // Page events only: the mesh layer would add every message.
  obs::EventTimeline timeline(
      obs::layerBit(obs::Layer::kFault) | obs::layerBit(obs::Layer::kSwap) |
      obs::layerBit(obs::Layer::kRing) | obs::layerBit(obs::Layer::kDisk));
  apps::RunSummary s;
  try {
    if (argc > 4) throw std::invalid_argument("unexpected argument '" + std::string(argv[4]) + "'");
    const std::string app = argc > 1 ? argv[1] : "sor";
    const double scale = argc > 2 ? util::positiveFlag("scale", argv[2], false, 1.0) : 1.0;
    const std::string sys = argc > 3 ? argv[3] : "nwcache";
    if (sys != "standard" && sys != "nwcache") {
      throw std::invalid_argument("system must be standard or nwcache, got '" + sys + "'");
    }
    machine::MachineConfig cfg;
    cfg.withSystem(machine::systemKindFromString(sys), machine::Prefetch::kNaive);
    apps::ObsSinks sinks;
    sinks.timeline = &timeline;
    std::printf("Tracing %s (%s, naive prefetch, scale %.2f)...\n", app.c_str(),
                sys.c_str(), scale);
    s = apps::runApp(cfg, app, scale, sinks);
  } catch (const std::invalid_argument& ex) {
    std::fprintf(stderr, "trace_analysis: %s\n", ex.what());
    return 2;
  }
  std::printf("run complete: exec=%.1f Mpcycles, %zu timeline events, verified=%s\n\n",
              static_cast<double>(s.exec_time) / 1e6, timeline.size(),
              s.verified ? "yes" : "NO");

  // Event mix: where each fault was served from (the fault-service span's
  // fetch child) and which path each eviction took.
  std::map<std::string, std::size_t> mix;
  std::map<sim::PageId, int> fault_counts;
  std::map<sim::PageId, sim::Tick> last_fault;
  sim::Accumulator refault_gap;
  for (const obs::TimelineEvent& e : timeline.events()) {
    const std::string name = e.name;
    if (name.rfind("fault.fetch_", 0) == 0 || e.layer == obs::Layer::kSwap) ++mix[name];
    if (name != "fault.service") continue;
    // Per-page fault counts: how much page re-fetching (thrashing) happened?
    auto [it, fresh] = last_fault.try_emplace(e.page, e.start);
    if (!fresh) {
      refault_gap.add(static_cast<double>(e.start - it->second));
      it->second = e.start;
    }
    fault_counts[e.page]++;
  }
  util::AsciiTable t({"Event", "Count"});
  for (const auto& [name, n] : mix) {
    t.addRow({name, util::AsciiTable::fmtInt(static_cast<long long>(n))});
  }
  t.print(std::cout);

  std::size_t refaulted = 0;
  int max_faults = 0;
  sim::PageId hottest = sim::kNoPage;
  for (const auto& [page, n] : fault_counts) {
    if (n > 1) ++refaulted;
    if (n > max_faults) {
      max_faults = n;
      hottest = page;
    }
  }
  std::printf("\n%zu distinct pages faulted; %zu were re-faulted after eviction.\n",
              fault_counts.size(), refaulted);
  if (hottest != sim::kNoPage) {
    std::printf("hottest page: %lld, faulted %d times\n",
                static_cast<long long>(hottest), max_faults);
  }
  if (refault_gap.count() > 0) {
    std::printf("re-fault gap: mean %.0f Kpcycles (min %.0f, max %.0f)\n",
                refault_gap.mean() / 1e3, refault_gap.min() / 1e3,
                refault_gap.max() / 1e3);
  }
  return 0;
}
