// Memory reference path: fast synchronous path for resident cache hits,
// and one persistent access coroutine per CPU for everything that must
// interact with the event calendar (TLB-miss stalls, memory fetches,
// write-buffer stalls, faults).
#include "machine/machine.hpp"

#include <stdexcept>
#include <string>

namespace nwc::machine {

inline void Machine::commitResidentTouch(int cpu, sim::PageId page, vm::PageEntry& e,
                                         bool write) {
  NodeCtx& nc = *nodes_[static_cast<std::size_t>(cpu)];

  if (!nc.tlb.lookup(page)) {
    nc.tlb_penalty += cfg_.tlb_miss_latency;
    tlbInsert(cpu, page, e);
  }
  if (e.home != sim::kNoNode) {
    nodes_[static_cast<std::size_t>(e.home)]->frames.touch(page);
  }
  if (write) e.dirty = true;
  e.referenced = true;
}

bool Machine::tryFastAccess(int cpu, std::uint64_t vaddr, bool write) {
  NodeCtx& nc = *nodes_[static_cast<std::size_t>(cpu)];
  if (nc.access.caller) [[unlikely]] {
    throw std::logic_error("Machine::access: cpu " + std::to_string(cpu) +
                           " already has a reference outstanding; a CPU issues "
                           "one reference at a time");
  }
  if (nc.pending + nc.tlb_penalty >= cfg_.access_quantum) return false;

  const sim::PageId page = pageOf(vaddr);
  vm::PageEntry& e = pt_->entry(page);
  if (e.state != vm::PageState::kResident) return false;

  if (!write) {
    // One set probe per level: an L1 hit costs one, an L1 miss that hits
    // L2 costs two (the L2 hit, then the L1 fill). L1, L2, the TLB and the
    // frame LRU are independent structures, so the order of these updates
    // is not observable.
    if (nc.l1.accessIfHit(vaddr, false)) {
      commitResidentTouch(cpu, page, e, false);
      nc.pending += cfg_.l1_hit_latency;
      return true;
    }
    if (!nc.l2.accessIfHit(vaddr, false)) return false;  // nothing touched yet
    commitResidentTouch(cpu, page, e, false);
    (void)nc.l1.fill(vaddr, false);  // counts the L1 miss; L2 still holds the line
    nc.pending += cfg_.l1_hit_latency + cfg_.l2_hit_latency;
    return true;
  }

  if (nc.wb.full(eng_->now())) return false;

  commitResidentTouch(cpu, page, e, true);

  const std::uint64_t line = lineNumOf(vaddr);
  auto o1 = nc.l1.access(vaddr, true);
  if (!o1.hit) {
    auto o2 = nc.l2.access(vaddr, true);
    if (o2.evicted && o2.evicted_dirty) {
      nc.mem_bus.request(eng_->now(), line_ser_membus_);
      dir_->onWriteback(cpu, o2.evicted_line);
    }
    if (!o2.hit) {
      // L2 fills mark the page's residency mask; every L1 fill comes with
      // an L2 access, so that covers both levels (vm::PageEntry::cached_on).
      e.cached_on |= std::uint64_t{1} << cpu;
      auto act = dir_->onWrite(cpu, line);
      for (int n = 0; n < cfg_.num_nodes; ++n) {
        if (act.invalidate_mask & (std::uint64_t{1} << n)) {
          nodes_[static_cast<std::size_t>(n)]->l1.invalidateLine(nc.l1.lineOf(vaddr));
          nodes_[static_cast<std::size_t>(n)]->l2.invalidateLine(line);
          ctrlTransfer(eng_->now(), cpu, n);
        }
      }
    }
  }
  // Release consistency: the write retires through the write buffer; the
  // processor pays only the pipeline cost. The drain occupies the memory
  // bus (and the mesh if the page is homed remotely).
  if (nc.wb.coalesces(eng_->now(), line)) {
    nc.wb.insert(eng_->now(), line, 0);
  } else {
    sim::Tick done = nc.mem_bus.request(eng_->now(), line_ser_membus_);
    if (e.home != cpu) {
      done = mesh_->transfer(done, cpu, e.home, cfg_.l2.line_bytes,
                             net::TrafficClass::kCoherence);
      done = nodes_[static_cast<std::size_t>(e.home)]->mem_bus.request(done,
                                                                       line_ser_membus_);
    }
    nc.wb.insert(eng_->now(), line, done);
  }
  nc.pending += cfg_.l1_hit_latency;
  return true;
}

sim::Task<> Machine::accessLoop(int cpu) {
  NodeCtx& nc = *nodes_[static_cast<std::size_t>(cpu)];
  // Suspends this coroutine and resumes the reference's caller; the next
  // slow reference resumes it again (AccessAwaiter::await_suspend).
  struct HandBack {
    NodeCtx& nc;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<>) const noexcept {
      return std::exchange(nc.access.caller, nullptr);
    }
    void await_resume() const noexcept {}
  };

  for (;;) {
    try {
      const std::uint64_t vaddr = nc.access.vaddr;
      const bool write = nc.access.write;
      co_await fence(cpu);  // put accumulated local time on the global clock

      const sim::PageId page = pageOf(vaddr);
      const std::uint64_t line = lineNumOf(vaddr);

      for (;;) {
        vm::PageEntry& e = pt_->entry(page);
        if (e.state != vm::PageState::kResident) {
          co_await pageFault(cpu, page, write);
          continue;  // re-validate: the page may already be racing back out
        }

        if (!nc.tlb.lookup(page)) {
          metrics_->cpu(cpu).tlb += cfg_.tlb_miss_latency;
          co_await eng_->delay(cfg_.tlb_miss_latency);
          if (pt_->entry(page).state != vm::PageState::kResident) continue;
          tlbInsert(cpu, page, e);
        }

        if (e.home != sim::kNoNode) {
          nodes_[static_cast<std::size_t>(e.home)]->frames.touch(page);
        }
        e.referenced = true;
        if (write) e.dirty = true;

        auto o1 = nc.l1.access(vaddr, write);
        sim::Tick pipeline = cfg_.l1_hit_latency;
        bool l2_miss = false;
        if (!o1.hit) {
          auto o2 = nc.l2.access(vaddr, write);
          pipeline += cfg_.l2_hit_latency;
          l2_miss = !o2.hit;
          if (l2_miss) e.cached_on |= std::uint64_t{1} << cpu;
          if (o2.evicted && o2.evicted_dirty) {
            nc.mem_bus.request(eng_->now(), line_ser_membus_);
            dir_->onWriteback(cpu, o2.evicted_line);
          }
        }

        if (write) {
          if (nc.wb.full(eng_->now())) {
            // Processor stalls until the oldest buffered write drains.
            co_await eng_->waitUntil(nc.wb.earliestCompletion());
          }
          if (l2_miss) {
            // Ownership acquisition: invalidate remote sharers (occupancy
            // only; the write itself is buffered).
            auto act = dir_->onWrite(cpu, line);
            for (int n = 0; n < cfg_.num_nodes; ++n) {
              if (act.invalidate_mask & (std::uint64_t{1} << n)) {
                nodes_[static_cast<std::size_t>(n)]->l1.invalidateLine(
                    nc.l1.lineOf(vaddr));
                nodes_[static_cast<std::size_t>(n)]->l2.invalidateLine(line);
                ctrlTransfer(eng_->now(), cpu, n);
              }
            }
          }
          if (nc.wb.coalesces(eng_->now(), line)) {
            nc.wb.insert(eng_->now(), line, 0);
          } else {
            sim::Tick done = nc.mem_bus.request(eng_->now(), line_ser_membus_);
            if (e.home != cpu && e.home != sim::kNoNode) {
              done = mesh_->transfer(done, cpu, e.home, cfg_.l2.line_bytes,
                                     net::TrafficClass::kCoherence);
              done = nodes_[static_cast<std::size_t>(e.home)]->mem_bus.request(
                  done, line_ser_membus_);
            }
            nc.wb.insert(eng_->now(), line, done);
          }
          nc.pending += pipeline;
          break;
        }

        // Read.
        if (!l2_miss) {
          nc.pending += pipeline;
          break;
        }

        // L2 read miss: fetch the line from memory (stalls the processor).
        auto act = dir_->onRead(cpu, line);
        const sim::NodeId home = e.home;
        sim::Tick t = eng_->now();
        if (act.owner_flush && act.owner != cpu) {
          // Intervention: fetch the dirty copy from the current owner.
          t = ctrlTransfer(t, cpu, act.owner);
          t = nodes_[static_cast<std::size_t>(act.owner)]->mem_bus.request(
              t, line_ser_membus_ + cfg_.dram_latency);
          t = mesh_->transfer(t, act.owner, cpu, cfg_.l2.line_bytes,
                              net::TrafficClass::kCoherence);
        } else if (home == cpu || home == sim::kNoNode) {
          t = nc.mem_bus.request(t, line_ser_membus_ + cfg_.dram_latency);
        } else {
          t = ctrlTransfer(t, cpu, home);
          t = nodes_[static_cast<std::size_t>(home)]->mem_bus.request(
              t, line_ser_membus_ + cfg_.dram_latency);
          t = mesh_->transfer(t, home, cpu, cfg_.l2.line_bytes,
                              net::TrafficClass::kCoherence);
        }
        co_await eng_->waitUntil(t + pipeline);
        break;
      }
    } catch (...) {
      nc.access_error = std::current_exception();
    }
    co_await HandBack{nc};
  }
}

}  // namespace nwc::machine
