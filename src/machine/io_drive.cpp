// I/O node daemons shared by every system variant: the disk controller's
// write-behind drain (with write combining) and the NACK/OK protocol. The
// physical write of a combined batch is delegated to the I/O backend (plain
// platter write, or the DCD's log append); variant-specific daemons (the
// NWCache interface drain, the DCD destage) live in machine/backends/.
#include "machine/backends/io_backend.hpp"
#include "machine/machine.hpp"

namespace nwc::machine {

sim::Task<> Machine::diskDrainLoop(int disk_idx) {
  DiskCtx& dc = *disks_[static_cast<std::size_t>(disk_idx)];
  const bool combine = cfg_.destage_policy == DestageKind::kWriteCombine;
  for (;;) {
    const std::vector<sim::PageId> batch = dc.cache.planWriteBatch(combine);
    if (batch.empty()) {
      co_await dc.work.wait();
      continue;
    }
    obs::AttrCtx actx;
    const sim::Tick t0 = eng_->now();
    co_await backend_->writeBatch(disk_idx, batch, actx);
    recordDestage(actx, eng_->now() - t0, batch.size());

    dc.cache.completeWrite(batch);
    metrics_->write_combining.add(static_cast<double>(batch.size()));
    sendPendingOks(disk_idx);
    dc.work.notifyAll();  // room appeared: wake the backend's drain daemons
  }
}

void Machine::recordDestage(const obs::AttrCtx& actx, sim::Tick end_to_end,
                            std::size_t batch_pages) {
  ++metrics_->destage_writes;
  metrics_->destage_pages += batch_pages;
  metrics_->destage_batch_size.add(static_cast<sim::Tick>(batch_pages));
  for (const auto& st : actx.stages()) metrics_->destage_stall_ticks += st.queue;
  metrics_->attr.record(obs::AttrOp::kDestage, obs::AttrOutcome::kPlatter,
                        end_to_end, actx);
}

void Machine::sendPendingOks(int disk_idx) {
  DiskCtx& dc = *disks_[static_cast<std::size_t>(disk_idx)];
  int available = dc.cache.slots() - dc.cache.dirtyCount();
  while (available-- > 0 && !dc.nack_fifo.empty()) {
    NackWaiter w = dc.nack_fifo.front();
    dc.nack_fifo.pop_front();
    eng_->spawn(deliverOk(disk_idx, w));
  }
}

sim::Task<> Machine::deliverOk(int disk_idx, NackWaiter w) {
  DiskCtx& dc = *disks_[static_cast<std::size_t>(disk_idx)];
  co_await eng_->waitUntil(ctrlTransfer(eng_->now(), dc.node, w.node));
  w.ok->fire();
}

}  // namespace nwc::machine
