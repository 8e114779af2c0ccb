#include "apps/workload.hpp"

#include <optional>

#include "apps/app_context.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/timeline.hpp"

namespace nwc::apps {

namespace {

// The historical cpuMain: the source's access stream, then the final
// fence + cpuDone that every workload gets around its kernel. Awaiting the
// nested drive() task is pure symmetric transfer — no engine events — so
// outputs are byte-identical to the pre-seam driver.
sim::Task<> driveCpu(AppContext& ctx, WorkloadSource& src, int cpu) {
  co_await src.drive(ctx, cpu);
  co_await ctx.machine().fence(cpu);
  ctx.machine().cpuDone(cpu);
}

}  // namespace

RunSummary runWorkload(const machine::MachineConfig& cfg, WorkloadSource& src,
                       const ObsSinks& sinks) {
  std::optional<machine::Machine> m;
  {
    obs::prof::Scope scope("setup");
    m.emplace(cfg);
    if (sinks.trace != nullptr) m->attachTrace(sinks.trace);
    if (sinks.timeline != nullptr) m->attachEventTimeline(sinks.timeline);
    if (sinks.ref_recorder != nullptr) m->attachRefRecorder(sinks.ref_recorder);
    if (sinks.sampler != nullptr) {
      sinks.sampler->attachTimeline(sinks.timeline);
      m->attachSampler(sinks.sampler);
    }
  }

  AppContext ctx(*m);
  {
    obs::prof::Scope scope("warmup");
    src.setup(ctx);
    m->start();
    for (int cpu = 0; cpu < cfg.num_nodes; ++cpu) {
      m->engine().spawn(driveCpu(ctx, src, cpu));
    }
  }
  {
    obs::prof::Scope scope("event-loop");
    m->engine().run();
    if (const std::uint64_t drain0 = m->hostDrainStartNs(); drain0 != 0) {
      obs::prof::addSample("destage-drain", obs::prof::nowNs() - drain0);
    }
  }

  obs::prof::Scope finalize_scope("finalize");
  RunSummary s;
  s.app = src.name();
  s.cfg = cfg;
  s.metrics = m->metrics();
  s.exec_time = m->metrics().executionTime();
  s.verified = src.verify();
  s.invariant_violations = m->checkInvariants();
  s.engine_events = m->engine().eventsProcessed();
  s.data_bytes = src.dataBytes();
  if (sinks.registry != nullptr) m->publishMetrics(*sinks.registry);
  if (sinks.sampler != nullptr) {
    s.health_verdict = sinks.sampler->health().verdict();
    s.health_trips = sinks.sampler->health().totalTrips();
    if (sinks.registry != nullptr) sinks.sampler->publishMetrics(*sinks.registry);
  }
  return s;
}

}  // namespace nwc::apps
