// Machine-level observability: the full instrument catalog (publishMetrics)
// and event-timeline attachment. Kept out of machine.cpp so the simulation
// core does not depend on the obs layer's headers.
#include <string>

#include "machine/backends/io_backend.hpp"
#include "machine/machine.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/timeline.hpp"

namespace nwc::machine {

void Machine::attachEventTimeline(obs::EventTimeline* tl) {
  etl_ = tl;
  mesh_->setTimeline(tl);
}

void Machine::collectSample(obs::SampleFrame& f) const {
  double free = 0, in_flight = 0;
  for (const auto& n : nodes_) {
    free += n->frames.freeFrames();
    in_flight += n->swaps_in_flight;
  }
  double dirty = 0;
  for (const auto& d : disks_) dirty += d->cache.dirtyCount();
  f[obs::Track::kFreeFrames] = free;
  f[obs::Track::kSwapsInFlight] = in_flight;
  f[obs::Track::kRingStaged] = backend_->stagedPages();
  f[obs::Track::kDirtySlots] = dirty;
  f[obs::Track::kFaults] = static_cast<double>(metrics_->faults);
  f[obs::Track::kSwapOuts] = static_cast<double>(metrics_->swap_outs);
  f[obs::Track::kNacks] = static_cast<double>(metrics_->nacks);
  f[obs::Track::kCleanEvictions] = static_cast<double>(metrics_->clean_evictions);
  f[obs::Track::kDestageWrites] = static_cast<double>(metrics_->destage_writes);
  f[obs::Track::kDestageStallTicks] =
      static_cast<double>(metrics_->destage_stall_ticks);
  f[obs::Track::kRetunes] = static_cast<double>(backend_->receiverRetunes());
}

sim::Task<> Machine::samplerDaemon() {
  obs::SampleFrame f;
  collectSample(f);
  sampler_->record(eng_->now(), f);  // the t=0 baseline
  for (;;) {
    co_await eng_->delay(sampler_->interval());
    collectSample(f);
    sampler_->record(eng_->now(), f);
    // One final sample lands after the last CPU retires, then the daemon
    // exits so the engine calendar can drain. It also exits when it is the
    // last thing left: a stalled run then returns as an unsampled one does
    // instead of re-arming the daemon forever.
    if (cpus_done_ >= metrics_->numCpus() || eng_->pendingEvents() == 0) break;
  }
}

void Machine::publishMetrics(obs::MetricsRegistry& reg) const {
  // --- cpu / run aggregates ------------------------------------------------
  reg.counter("cpu.exec_pcycles", static_cast<std::uint64_t>(metrics_->executionTime()));
  reg.counter("cpu.accesses", metrics_->totalAccesses());
  reg.counter("cpu.stall.nofree_ticks", static_cast<std::uint64_t>(metrics_->totalNoFree()));
  reg.counter("cpu.stall.transit_ticks", static_cast<std::uint64_t>(metrics_->totalTransit()));
  reg.counter("cpu.stall.fault_ticks", static_cast<std::uint64_t>(metrics_->totalFault()));
  reg.counter("cpu.stall.tlb_ticks", static_cast<std::uint64_t>(metrics_->totalTlb()));
  reg.counter("cpu.stall.other_ticks", static_cast<std::uint64_t>(metrics_->totalOther()));

  // --- critical-path attribution (see obs/attribution.hpp) -----------------
  metrics_->attr.publish(reg);

  // --- fault path ----------------------------------------------------------
  reg.counter("fault.count", metrics_->faults);
  reg.counter("fault.transit_waits", metrics_->transit_waits);
  reg.histogram("fault.latency_pcycles", metrics_->fault_hist);
  obs::publish(reg, "fault.ticks", metrics_->fault_ticks);
  obs::publish(reg, "fault.ctrl_cache_hit_ticks", metrics_->disk_cache_hit_fault_ticks);
  obs::publish(reg, "fault.ring_read", metrics_->ring_read_hits);
  reg.counter("fault.ctrl_cache_hits", metrics_->disk_cache_hits);
  reg.counter("fault.ctrl_cache_misses", metrics_->disk_cache_misses);
  reg.counter("fault.ring_aborted_requests", metrics_->ring_aborted_requests);

  // --- swap path -----------------------------------------------------------
  reg.counter("swap.outs", metrics_->swap_outs);
  reg.counter("swap.clean_evictions", metrics_->clean_evictions);
  reg.counter("swap.nacks", metrics_->nacks);
  reg.histogram("swap.latency_pcycles", metrics_->swap_out_hist);
  obs::publish(reg, "swap.ticks", metrics_->swap_out_ticks);
  obs::publish(reg, "swap.write_combining", metrics_->write_combining);

  // --- block-stream front end (Machine::blockAccess) ------------------------
  // Published only when block traffic ran: kernel-only runs (and their
  // committed CI goldens) keep their exact historical catalogs.
  if (metrics_->block_reads != 0 || metrics_->block_writes != 0) {
    reg.counter("block.reads", metrics_->block_reads);
    reg.counter("block.writes", metrics_->block_writes);
  }

  // --- destage (write-behind batches + DCD log copies) ----------------------
  reg.counter("destage.writes", metrics_->destage_writes);
  reg.counter("destage.pages", metrics_->destage_pages);
  reg.counter("destage.stall_ticks",
              static_cast<std::uint64_t>(metrics_->destage_stall_ticks));
  reg.histogram("destage.batch_size", metrics_->destage_batch_size);

  // --- per-node structures, aggregated machine-wide ------------------------
  std::uint64_t tlb_hits = 0, tlb_misses = 0;
  std::uint64_t membus_jobs = 0, iobus_jobs = 0;
  sim::Tick membus_busy = 0, membus_queued = 0, iobus_busy = 0, iobus_queued = 0;
  int free_frames = 0, total_frames = 0, in_flight = 0;
  for (const auto& n : nodes_) {
    tlb_hits += n->tlb.hitStats().hits();
    tlb_misses += n->tlb.hitStats().misses();
    membus_jobs += n->mem_bus.jobs();
    membus_busy += n->mem_bus.busyTicks();
    membus_queued += n->mem_bus.queuedTicks();
    iobus_jobs += n->io_bus.jobs();
    iobus_busy += n->io_bus.busyTicks();
    iobus_queued += n->io_bus.queuedTicks();
    free_frames += n->frames.freeFrames();
    total_frames += n->frames.totalFrames();
    in_flight += n->swaps_in_flight;
  }
  reg.counter("tlb.hits", tlb_hits);
  reg.counter("tlb.misses", tlb_misses);
  reg.gauge("tlb.rate", tlb_hits + tlb_misses
                            ? static_cast<double>(tlb_hits) /
                                  static_cast<double>(tlb_hits + tlb_misses)
                            : 0.0);
  reg.counter("tlb.shootdowns", metrics_->shootdowns);
  reg.counter("bus.mem.jobs", membus_jobs);
  reg.counter("bus.mem.busy_ticks", static_cast<std::uint64_t>(membus_busy));
  reg.counter("bus.mem.queued_ticks", static_cast<std::uint64_t>(membus_queued));
  reg.counter("bus.io.jobs", iobus_jobs);
  reg.counter("bus.io.busy_ticks", static_cast<std::uint64_t>(iobus_busy));
  reg.counter("bus.io.queued_ticks", static_cast<std::uint64_t>(iobus_queued));
  reg.gauge("vm.free_frames", free_frames);
  reg.gauge("vm.total_frames", total_frames);
  reg.gauge("vm.swaps_in_flight", in_flight);

  // --- interconnect --------------------------------------------------------
  mesh_->publishMetrics(reg, "mesh.");

  // --- disks ---------------------------------------------------------------
  std::uint64_t disk_reads = 0, disk_writes = 0, disk_pages = 0;
  for (std::size_t i = 0; i < disks_.size(); ++i) {
    const std::string p = "disk" + std::to_string(i) + ".";
    disks_[i]->disk.publishMetrics(reg, p);
    disks_[i]->cache.publishMetrics(reg, p + "cache.");
    disk_reads += disks_[i]->disk.reads();
    disk_writes += disks_[i]->disk.writes();
    disk_pages += disks_[i]->disk.pagesTransferred();
  }
  reg.counter("disk.reads", disk_reads);
  reg.counter("disk.writes", disk_writes);
  reg.counter("disk.pages_transferred", disk_pages);

  // --- simulator self-accounting -------------------------------------------
  // scheduleAt calls whose tick was silently clamped up to now(). Nonzero
  // counts flag model code that schedules into the past.
  reg.counter("sim.schedule_clamped", eng_->clampedSchedules());

  // --- backend instruments (ring + interfaces + receivers, log disk, ...) --
  backend_->publishMetrics(reg);
}

}  // namespace nwc::machine
