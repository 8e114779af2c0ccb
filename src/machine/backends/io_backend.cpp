// Shared datapaths (standard swap-out, controller reads) and the backend
// factory — the single place a SystemKind decides anything in the datapath.
#include "machine/backends/io_backend.hpp"

#include "machine/backends/dcd_backend.hpp"
#include "machine/backends/disk_backend.hpp"
#include "machine/backends/ring_backend.hpp"
#include "obs/timeline.hpp"

namespace nwc::machine {

using vm::PageState;

std::unique_ptr<IoBackend> makeIoBackend(Machine& m) {
  switch (m.config().system) {
    case SystemKind::kNWCache: return std::make_unique<RingBackend>(m);
    case SystemKind::kDCD: return std::make_unique<DcdBackend>(m);
    case SystemKind::kStandard: break;
  }
  return std::make_unique<DiskBackend>(m);
}

sim::Task<> IoBackend::swapOutToDisk(sim::NodeId n, sim::PageId page,
                                     obs::AttrCtx& actx) {
  const int di = diskIndexOf(page);
  Machine::DiskCtx& dc = diskCtx(di);
  const sim::NodeId io = dc.node;
  vm::PageEntry& e = pt().entry(page);
  actx.setOutcome(obs::AttrOutcome::kCtrlCache);

  for (;;) {
    // Page data: local memory bus -> mesh -> I/O bus at the I/O node.
    sim::Tick t = attrRequest(actx, obs::AttrStage::kMemBus, node(n).mem_bus,
                              eng().now(), pageSerMembus());
    t = attrMeshTransfer(actx, t, n, io, cfg().page_bytes,
                         net::TrafficClass::kSwapOut);
    t = attrRequest(actx, obs::AttrStage::kIoBus, node(io).io_bus, t,
                    pageSerIobus());
    actx.add(obs::AttrStage::kDiskCtrl, 0, cfg().controller_overhead);
    co_await eng().waitUntil(t + cfg().controller_overhead);

    if (dc.cache.insertDirty(page)) {
      dc.work.notifyAll();  // a Dirty slot for the write-behind drain
      co_await eng().waitUntil(ctrlTransfer(eng().now(), io, n, &actx));  // ACK
      break;
    }

    // NACK: the controller cache is full of swap-outs. The controller
    // records us in its FIFO and sends OK when room appears (paper 3.1).
    ++metrics().nacks;
    if (traceSink() != nullptr) {
      traceSink()->record(TraceEvent{eng().now(), 0, page, n, TraceKind::kNack});
    }
    if (etl() != nullptr && etl()->enabled(obs::Layer::kSwap)) {
      etl()->instant(obs::Layer::kSwap, "swap.nack", eng().now(), n, page);
    }
    co_await eng().waitUntil(ctrlTransfer(eng().now(), io, n, &actx));  // NACK delivery
    sim::Trigger ok(eng());
    dc.nack_fifo.push_back(Machine::NackWaiter{n, &ok});
    // With no dirty page left, no write completes to send the OK: the cache
    // drained while the NACK was in flight, so there is room now.
    if (dc.cache.dirtyCount() == 0) m_.sendPendingOks(di);
    const sim::Tick ok_wait0 = eng().now();
    co_await ok.wait();
    // Waiting for the controller's OK is time spent queued on it.
    actx.add(obs::AttrStage::kDiskCtrl, eng().now() - ok_wait0, 0);
    // OK received: loop re-sends the page.
  }

  e.dirty = false;
  pt().setState(page, PageState::kDisk);
}

sim::Tick IoBackend::controllerReadService(int disk_idx, sim::PageId page,
                                           bool* cache_hit, obs::AttrCtx& actx) {
  Machine::DiskCtx& d = diskCtx(disk_idx);
  sim::Tick t = eng().now() + cfg().controller_overhead;
  actx.add(obs::AttrStage::kDiskCtrl, 0, cfg().controller_overhead);

  if (cfg().prefetch == Prefetch::kOptimal ||
      (cfg().prefetch == Prefetch::kHinted && rng().chance(cfg().hint_accuracy))) {
    // Idealized prefetching: the read is satisfied from the controller
    // cache; the platter read happened in the background. Under kHinted
    // only a `hint_accuracy` fraction of hints arrive in time.
    *cache_hit = true;
    ++metrics().disk_cache_hits;
    return t;
  }

  if (d.cache.lookup(page)) {
    *cache_hit = true;
    ++metrics().disk_cache_hits;
    return t;
  }

  *cache_hit = false;
  ++metrics().disk_cache_misses;

  // Backend staging (the DCD log) may hold the current version.
  sim::Tick staged_done = 0;
  if (readFromStage(disk_idx, page, t, &staged_done, actx)) {
    return staged_done;
  }

  // Demand read from the platters, serialized on the arm.
  const sim::Tick svc = d.disk.readTime(pfs().blockOf(page), 1);
  {
    const sim::Tick done = d.disk.arm().request(t, svc);
    actx.add(obs::AttrStage::kDiskQueue, done - svc - t, 0);
    const sim::Tick xfer = d.disk.pageTransferTicks();
    actx.add(obs::AttrStage::kDiskSeek, 0, svc - xfer);
    actx.add(obs::AttrStage::kDiskTransfer, 0, xfer);
    t = done;
  }
  if (etl() != nullptr && etl()->enabled(obs::Layer::kDisk)) {
    etl()->span(obs::Layer::kDisk, "disk.read", t - svc, svc, d.node, page);
  }
  d.cache.insertClean(page);

  // Naive sequential prefetch: fill the remaining free slots with the pages
  // that follow on this disk (writes keep priority; only Free slots fill).
  int free_slots = d.cache.cleanableSlots();
  sim::PageId p = page;
  sim::Tick bg = t;
  while (free_slots-- > 0) {
    p = pfs().nextOnSameDisk(p);
    if (p >= pt().numPages()) break;
    if (pt().entry(p).state != PageState::kDisk) continue;  // no disk copy is current
    bg = d.disk.arm().request(bg, d.disk.pageTransferTicks());
    d.cache.insertClean(p);
  }
  return t;
}

sim::Task<bool> IoBackend::fetchFromDisk(int cpu, sim::PageId page,
                                         obs::AttrCtx& actx) {
  const int di = diskIndexOf(page);
  Machine::DiskCtx& dc = diskCtx(di);
  const sim::NodeId io = dc.node;

  // Request message to the I/O node.
  co_await eng().waitUntil(ctrlTransfer(eng().now(), cpu, io, &actx));

  bool hit = false;
  co_await eng().waitUntil(controllerReadService(di, page, &hit, actx));

  // Page data: I/O bus at the I/O node -> mesh -> memory bus at the reader.
  sim::Tick t = attrRequest(actx, obs::AttrStage::kIoBus, node(io).io_bus,
                            eng().now(), pageSerIobus());
  t = attrMeshTransfer(actx, t, io, cpu, cfg().page_bytes,
                       net::TrafficClass::kPageRead);
  t = attrRequest(actx, obs::AttrStage::kMemBus, node(cpu).mem_bus, t,
                  pageSerMembus());
  co_await eng().waitUntil(t);
  co_return hit;
}

sim::Task<> IoBackend::writeBatch(int disk_idx,
                                  const std::vector<sim::PageId>& batch,
                                  obs::AttrCtx& actx) {
  Machine::DiskCtx& dc = diskCtx(disk_idx);
  // One physical write for the whole run of consecutive pages.
  const sim::Tick now = eng().now();
  const sim::Tick svc = dc.disk.writeTime(pfs().blockOf(batch.front()),
                                          static_cast<int>(batch.size()));
  const sim::Tick t = dc.disk.arm().request(now, svc);
  actx.add(obs::AttrStage::kDiskQueue, t - svc - now, 0);
  actx.add(obs::AttrStage::kDestage, 0, svc);
  co_await eng().waitUntil(t);
  if (etl() != nullptr && etl()->enabled(obs::Layer::kDisk)) {
    // The span covers the arm's service period, not our queueing wait.
    etl()->span(obs::Layer::kDisk, "disk.write", t - svc, svc, dc.node,
                batch.front());
  }
}

}  // namespace nwc::machine
