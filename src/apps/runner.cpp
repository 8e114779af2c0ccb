#include "apps/runner.hpp"

#include <memory>
#include <stdexcept>

#include "apps/workload.hpp"
#include "obs/health.hpp"
#include "obs/profiler.hpp"
#include "util/units.hpp"

namespace nwc::apps {

RunSummary runApp(const machine::MachineConfig& cfg, const std::string& app_name,
                  double scale, const ObsSinks& sinks) {
  std::unique_ptr<WorkloadSource> src;
  {
    // Workload construction (kernel instance, trace load, or synthetic
    // generation) is setup work; scoped so profiles attribute it there.
    obs::prof::Scope scope("setup");
    if (isWorkloadSpec(app_name)) {
      src = makeWorkload(app_name, scale);
    } else {
      const AppInfo* info = findApp(app_name);
      if (info == nullptr) {
        throw std::invalid_argument("unknown application: " + app_name);
      }
      src = std::make_unique<KernelWorkload>(info->name, info->make(scale));
    }
  }
  return runWorkload(cfg, *src, sinks);
}

obs::HealthContext healthContextFor(const machine::MachineConfig& cfg) {
  obs::HealthContext ctx;
  ctx.reserve_frames =
      static_cast<double>(cfg.num_nodes) * static_cast<double>(cfg.min_free_frames);
  if (cfg.hasRing()) {
    ctx.ring_capacity_pages =
        static_cast<double>(cfg.ring_channels) *
        static_cast<double>(cfg.ring_channel_bytes / cfg.page_bytes);
    ctx.retune_ticks = static_cast<double>(
        util::usToTicks(cfg.ring_retune_us, cfg.pcycle_ns));
  }
  return ctx;
}

}  // namespace nwc::apps
