// Block-stream entry point: page-grain storage requests served through the
// swap/fault/destage datapath (the workload front end for synthetic and
// recorded block traces — see apps/workload.hpp).
//
// A block request behaves like a memory reference with the processor-side
// model peeled off: no TLB, no L1/L2, no write buffer — storage clients
// address whole objects (pages), not cache lines. Non-resident pages go
// through the ordinary pageFault path, so the configured IoBackend
// (disk / DCD / NWCache ring), replacement, destage, attribution,
// sampler and health machinery all see the traffic without any special
// cases. A resident hit pays one memory-bus page transfer on the serving
// node, and dirtying a page here makes it destage later exactly like a
// dirty mapped page would.
#include "machine/machine.hpp"

namespace nwc::machine {

sim::Task<> Machine::blockAccess(int cpu, std::uint64_t vaddr, bool write) {
  NodeCtx& nc = *nodes_[static_cast<std::size_t>(cpu)];
  ++metrics_->cpu(cpu).accesses;
  if (write) {
    ++metrics_->block_writes;
  } else {
    ++metrics_->block_reads;
  }
  co_await fence(cpu);  // put accumulated local time on the global clock

  const sim::PageId page = pageOf(vaddr);
  for (;;) {
    vm::PageEntry& e = pt_->entry(page);
    if (e.state != vm::PageState::kResident) {
      co_await pageFault(cpu, page, write);
      continue;  // re-validate: the page may already be racing back out
    }

    if (e.home != sim::kNoNode) {
      nodes_[static_cast<std::size_t>(e.home)]->frames.touch(page);
    }
    e.referenced = true;
    if (write) e.dirty = true;

    // Serve the block off the holding node's memory: one page-sized bus
    // transfer (remote residency already paid its mesh cost in the fault
    // path; steady-state service is charged where the frame lives).
    sim::FifoServer& bus =
        e.home != sim::kNoNode && e.home != cpu
            ? nodes_[static_cast<std::size_t>(e.home)]->mem_bus
            : nc.mem_bus;
    const sim::Tick done = bus.request(eng_->now(), page_ser_membus_);
    co_await eng_->waitUntil(done);
    co_return;
  }
}

}  // namespace nwc::machine
