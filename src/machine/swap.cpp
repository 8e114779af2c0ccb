// Page replacement and swap-out bookkeeping.
//
// Each node runs a replacement daemon that keeps `min_free_frames` frames
// free. Clean victims are freed instantly. Dirty victims are swapped out
// through the configured I/O backend (machine/backends/): the standard
// machine's NACK/OK protocol to the controller cache, the NWCache's ring
// staging, or the DCD's log disk. This file owns only
// the variant-independent parts: victim selection, shootdowns, and the
// metrics/trace wrapper around the backend's write-out.
#include <bit>

#include "machine/backends/io_backend.hpp"
#include "machine/machine.hpp"
#include "obs/timeline.hpp"

namespace nwc::machine {

using vm::PageState;

namespace {

// A swap-out is labelled by the path it took (the backend's attribution
// outcome): the ring, or the disk controller behind every other backend.
TraceKind swapTraceKind(obs::AttrOutcome path) {
  return path == obs::AttrOutcome::kRing ? TraceKind::kSwapOutRing : TraceKind::kSwapOutDisk;
}

const char* swapSpanName(obs::AttrOutcome path) {
  return path == obs::AttrOutcome::kRing ? "swap.ring" : "swap.disk";
}

}  // namespace

void Machine::shootdown(sim::PageId page, sim::NodeId initiator) {
  ++metrics_->shootdowns;
  if (etl_ != nullptr && etl_->enabled(obs::Layer::kTlb)) {
    etl_->instant(obs::Layer::kTlb, "tlb.shootdown", eng_->now(), initiator, page);
  }
  // Only the TLBs in the page's residency mask hold its translation; every
  // other node is still interrupted and charged for it.
  vm::PageEntry& e = pt_->entry(page);
  for (std::uint64_t mask = e.tlb_on; mask != 0; mask &= mask - 1) {
    nodes_[static_cast<std::size_t>(std::countr_zero(mask))]->tlb.invalidate(page);
  }
  e.tlb_on = 0;
  for (int n = 0; n < cfg_.num_nodes; ++n) {
    if (n != initiator) {
      nodes_[static_cast<std::size_t>(n)]->tlb_penalty += cfg_.interrupt_latency;
    }
  }
  nodes_[static_cast<std::size_t>(initiator)]->tlb_penalty += cfg_.tlb_shootdown_latency;

  // Shootdowns are cycle-charged (they consume no simulated wall time), so
  // they are their own attribution op rather than a stage of the enclosing
  // swap-out: initiator latency as service, the remote interrupt charges as
  // queue, end-to-end = the total penalty billed to the TLB category.
  obs::AttrCtx sctx;
  const sim::Tick remote_cost =
      static_cast<sim::Tick>(cfg_.num_nodes - 1) * cfg_.interrupt_latency;
  sctx.add(obs::AttrStage::kTlbShootdown, remote_cost, cfg_.tlb_shootdown_latency);
  metrics_->attr.record(obs::AttrOp::kShootdown, obs::AttrOutcome::kNone,
                        cfg_.tlb_shootdown_latency + remote_cost, sctx);
}

void Machine::dropPageFromCachesAndDirectory(sim::PageId page) {
  const std::uint64_t base = static_cast<std::uint64_t>(page) * cfg_.page_bytes;
  // Only nodes in the residency mask can hold a line of the page: every
  // other node's lines were invalidated by the previous drop and it has
  // filled none since. The directory drop stays unconditional, because a
  // write that stalled on its write buffer can register ownership after
  // the mask was cleared.
  vm::PageEntry& e = pt_->entry(page);
  for (std::uint64_t mask = e.cached_on; mask != 0; mask &= mask - 1) {
    NodeCtx& nc = *nodes_[static_cast<std::size_t>(std::countr_zero(mask))];
    nc.l1.invalidatePage(base, cfg_.page_bytes);
    nc.l2.invalidatePage(base, cfg_.page_bytes);
  }
  e.cached_on = 0;
  const std::uint64_t first_line = base / cfg_.l2.line_bytes;
  dir_->dropPage(first_line, cfg_.page_bytes / cfg_.l2.line_bytes);
}

sim::Task<> Machine::replacementDaemon(sim::NodeId n) {
  NodeCtx& nc = *nodes_[static_cast<std::size_t>(n)];
  for (;;) {
    // Frames already being written out will free on their own; only start
    // enough additional swap-outs to restore the reserve.
    while (nc.frames.freeFrames() + nc.swaps_in_flight < nc.frames.minFree()) {
      auto victim = nc.frames.lruVictim();
      if (!victim.has_value()) break;  // nothing resident left to evict
      const sim::PageId page = *victim;
      vm::PageEntry& e = pt_->entry(page);

      // Claim the victim: downgrade rights everywhere, synchronously.
      nc.frames.retire(page);
      shootdown(page, n);
      dropPageFromCachesAndDirectory(page);
      e.home = sim::kNoNode;
      e.last_translation = n;

      if (!e.dirty) {
        // Clean: the disk copy is current; just free the frame.
        pt_->setState(page, PageState::kDisk);
        nc.frames.releaseFrame();
        nc.frame_freed.notifyAll();
        ++metrics_->clean_evictions;
        if (trace_ != nullptr) {
          trace_->record(
              TraceEvent{eng_->now(), 0, page, n, TraceKind::kCleanEviction});
        }
        if (etl_ != nullptr && etl_->enabled(obs::Layer::kSwap)) {
          etl_->instant(obs::Layer::kSwap, "swap.clean_eviction", eng_->now(), n,
                        page);
        }
        continue;
      }

      ++metrics_->swap_outs;
      ++nc.swaps_in_flight;
      pt_->setState(page, PageState::kSwapping);
      eng_->spawn(swapOutPage(n, page));  // swap-outs overlap (bursty)
    }
    co_await nc.replace_kick.wait();
  }
}

sim::Task<> Machine::swapOutPage(sim::NodeId n, sim::PageId page) {
  const sim::Tick t0 = eng_->now();
  obs::AttrCtx actx;
  co_await backend_->swapOut(n, page, actx);
  NodeCtx& nc = *nodes_[static_cast<std::size_t>(n)];
  --nc.swaps_in_flight;
  nc.frames.releaseFrame();
  nc.frame_freed.notifyAll();
  nc.replace_kick.notifyAll();
  const sim::Tick dt = eng_->now() - t0;
  metrics_->swap_out_ticks.add(static_cast<double>(dt));
  metrics_->swap_out_hist.add(dt);
  metrics_->attr.record(obs::AttrOp::kSwap, actx.outcome(), dt, actx);
  if (trace_ != nullptr) {
    trace_->record(TraceEvent{eng_->now(), dt, page, n, swapTraceKind(actx.outcome())});
  }
  if (etl_ != nullptr && etl_->enabled(obs::Layer::kSwap)) {
    // Async: a node's swap-outs overlap (the replacement daemon spawns them
    // in bursts), so complete "X" slices would render as overlaps.
    etl_->asyncSpan(obs::Layer::kSwap, swapSpanName(actx.outcome()), t0, dt, n, page);
  }
}

}  // namespace nwc::machine
