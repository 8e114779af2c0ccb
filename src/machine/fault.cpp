// Page-fault service: transit waits, frame allocation (NoFree stalls), and
// the fetch itself, routed through the configured I/O backend (demand disk
// reads or NWCache victim reads off the optical ring).
#include "machine/backends/io_backend.hpp"
#include "machine/machine.hpp"
#include "obs/timeline.hpp"

namespace nwc::machine {

using vm::PageState;

sim::Task<> Machine::pageFault(int cpu, sim::PageId page, bool write) {
  NodeCtx& nc = *nodes_[static_cast<std::size_t>(cpu)];
  vm::PageEntry& e = pt_->entry(page);
  bool waited_transit = false;

  for (;;) {
    if (e.state == PageState::kResident) {
      // Another node brought it in while we waited.
      if (waited_transit) ++metrics_->transit_waits;
      co_return;
    }
    if (e.state == PageState::kTransit) {
      // Another node is fetching it: the paper's Transit category.
      const sim::Tick w0 = eng_->now();
      waited_transit = true;
      co_await e.changed.wait();
      metrics_->cpu(cpu).transit += eng_->now() - w0;
      continue;
    }
    if (backend_->faultMustWait(e.state)) {
      // Stalled behind an incomplete swap-out (or, in the victim-read
      // ablation, behind the ring drain). The paper attributes processor
      // stalls caused by swap-outs that cannot keep up to NoFree.
      const sim::Tick w0 = eng_->now();
      co_await e.changed.wait();
      metrics_->cpu(cpu).nofree += eng_->now() - w0;
      continue;
    }
    // kDisk (or backend-fetchable staging: kRing): compete to
    // become the fetcher. Time queued on the entry mutex is time another
    // processor spends fetching: Transit.
    const sim::Tick m0 = eng_->now();
    auto guard = co_await e.mutex.scoped();
    if (const sim::Tick mw = eng_->now() - m0; mw > 0) {
      metrics_->cpu(cpu).transit += mw;
      waited_transit = true;
    }
    if (!backend_->fetchableState(e.state)) {
      guard.release();
      continue;  // state moved while we queued on the mutex; re-evaluate
    }

    // We are the fetcher, holding the entry mutex.
    if (waited_transit) ++metrics_->transit_waits;
    const sim::Tick f0 = eng_->now();
    ++metrics_->faults;

    const FetchPlan plan = backend_->planFetch(page, e);
    const bool from_ring = plan.route == FetchPlan::Route::kRing;
    pt_->setState(page, PageState::kTransit);

    const sim::Tick nofree_before = metrics_->cpu(cpu).nofree;
    co_await ensureFreeFrame(cpu, cpu);
    const sim::Tick nofree_wait = metrics_->cpu(cpu).nofree - nofree_before;
    nc.frames.consumeFrame();     // residency registered once the data lands
    nc.replace_kick.notifyAll();  // allocation may have dipped below reserve

    const sim::Tick fetch0 = eng_->now();
    obs::AttrCtx actx;
    const bool controller_hit = co_await backend_->fetch(cpu, page, plan, actx);

    nc.frames.addResident(page);
    e.home = cpu;
    e.last_translation = cpu;
    e.dirty = from_ring || write;  // a ring copy never hit disk
    e.referenced = true;
    pt_->setState(page, PageState::kResident);
    tlbInsert(cpu, page, e);

    // Frame-reclaim stalls are reported as NoFree, not Fault.
    const sim::Tick f_end = eng_->now();
    const sim::Tick fault_ticks = (f_end - f0) - nofree_wait;
    metrics_->cpu(cpu).fault += fault_ticks;
    metrics_->fault_ticks.add(static_cast<double>(fault_ticks));
    metrics_->fault_hist.add(fault_ticks);
    if (controller_hit) {
      metrics_->disk_cache_hit_fault_ticks.add(static_cast<double>(f_end - fetch0));
    }
    // The fault stalled the cpu for exactly [fetch0, f_end] beyond its
    // NoFree share; the stage ticks in `actx` must tile that interval.
    const obs::AttrOutcome attr_outcome =
        from_ring        ? obs::AttrOutcome::kRing
        : controller_hit ? obs::AttrOutcome::kCtrlCache
                         : obs::AttrOutcome::kPlatter;
    metrics_->attr.record(obs::AttrOp::kFault, attr_outcome, fault_ticks, actx);
    if (trace_ != nullptr) {
      const TraceKind kind = from_ring ? TraceKind::kFaultRingHit
                             : controller_hit ? TraceKind::kFaultDiskHit
                                              : TraceKind::kFaultDiskMiss;
      trace_->record(TraceEvent{f_end, fault_ticks, page, cpu, kind});
    }
    if (etl_ != nullptr && etl_->enabled(obs::Layer::kFault)) {
      // Parent/child spans: the fault-service span owns a frame-allocation
      // child (when reclaim stalled us) and the fetch child on the layer
      // that actually served the page.
      const std::uint64_t fid = etl_->reserveSpanId();
      if (fetch0 > f0) {
        etl_->span(obs::Layer::kVm, "fault.alloc_frame", f0, fetch0 - f0, cpu, page,
                   fid);
      }
      const obs::Layer fetch_layer = from_ring ? obs::Layer::kRing : obs::Layer::kDisk;
      const char* fetch_name = from_ring        ? "fault.fetch_ring"
                               : controller_hit ? "fault.fetch_ctrl_hit"
                                                : "fault.fetch_disk";
      etl_->span(fetch_layer, fetch_name, fetch0, f_end - fetch0, cpu, page, fid);
      etl_->span(obs::Layer::kFault, "fault.service", f0, f_end - f0, cpu, page, 0,
                 fid);
    }
    co_return;
  }
}

sim::Task<> Machine::ensureFreeFrame(int cpu, sim::NodeId n) {
  NodeCtx& nc = *nodes_[static_cast<std::size_t>(n)];
  if (nc.frames.freeFrames() > 0) co_return;
  const sim::Tick t0 = eng_->now();
  nc.replace_kick.notifyAll();
  while (nc.frames.freeFrames() == 0) {
    co_await nc.frame_freed.wait();
  }
  metrics_->cpu(cpu).nofree += eng_->now() - t0;
}

}  // namespace nwc::machine
