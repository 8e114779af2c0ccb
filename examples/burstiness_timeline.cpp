// Burstiness timeline: visualize the claim at the heart of the paper —
// "page swap-outs are often very bursty" — by sampling machine state over a
// run with the periodic sampler and rendering ASCII sparklines of free
// frames, in-flight swap-outs, controller-cache pressure, and (on the
// NWCache machine) ring occupancy.
//
//   ./burstiness_timeline [app] [scale]
#include <cstdio>
#include <stdexcept>
#include <string>

#include "apps/runner.hpp"
#include "obs/health.hpp"
#include "obs/sampler.hpp"
#include "util/ini.hpp"

namespace {

using namespace nwc;

void runOnce(machine::SystemKind sys, const std::string& app, double scale) {
  machine::MachineConfig cfg;
  cfg.withSystem(sys, machine::Prefetch::kOptimal);
  const obs::HealthContext health = apps::healthContextFor(cfg);
  obs::SamplerConfig scfg;
  scfg.interval = 10'000;  // 50 us: fine enough to resolve a burst
  obs::Sampler sampler(scfg, health);
  apps::ObsSinks sinks;
  sinks.sampler = &sampler;
  const apps::RunSummary s = apps::runApp(cfg, app, scale, sinks);

  std::printf("%s machine (exec %.0f Mpcycles, %llu swap-outs, verified=%s)\n",
              machine::toString(sys), static_cast<double>(s.exec_time) / 1e6,
              static_cast<unsigned long long>(s.metrics.swap_outs),
              s.verified ? "yes" : "NO");
  auto row = [&](const char* label, obs::Track t, const std::string& tail = "") {
    const sim::TimeSeries& ts = sampler.track(t);
    std::printf("  %s |%s| peak %.0f%s\n", label, ts.sparkline().c_str(), ts.maxValue(),
                tail.c_str());
  };
  row("free frames    ", obs::Track::kFreeFrames);
  row("swaps in flight", obs::Track::kSwapsInFlight);
  row("dirty ctl slots", obs::Track::kDirtySlots);
  if (sys == machine::SystemKind::kNWCache) {
    row("ring occupancy ", obs::Track::kRingStaged,
        " of " + std::to_string(static_cast<long long>(health.ring_capacity_pages)));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 3) throw std::invalid_argument("unexpected argument '" + std::string(argv[3]) + "'");
    const std::string app = argc > 1 ? argv[1] : "sor";
    const double scale = argc > 2 ? util::positiveFlag("scale", argv[2], false, 1.0) : 1.0;
    std::printf("Swap-out burstiness of %s at scale %.2f under optimal "
                "prefetching\n(time runs left to right; each column shows the "
                "bucket peak)\n\n", app.c_str(), scale);
    runOnce(machine::SystemKind::kStandard, app, scale);
    runOnce(machine::SystemKind::kNWCache, app, scale);
  } catch (const std::invalid_argument& ex) {
    std::fprintf(stderr, "burstiness_timeline: %s\n", ex.what());
    return 2;
  }
  std::printf("The standard machine's in-flight swap-outs saturate during\n"
              "bursts while free frames crater; the NWCache absorbs the same\n"
              "bursts into the ring within microseconds.\n");
  return 0;
}
