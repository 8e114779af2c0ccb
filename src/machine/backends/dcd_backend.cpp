#include "machine/backends/dcd_backend.hpp"

#include "obs/timeline.hpp"

namespace nwc::machine {

DcdBackend::DcdBackend(Machine& m) : DiskBackend(m) {
  for (int d = 0; d < numDisks(); ++d) {
    io::DiskParams lp;
    lp.min_seek_ms = cfg().min_seek_ms;
    lp.max_seek_ms = cfg().max_seek_ms;
    lp.rot_ms = cfg().rot_ms;
    lp.bytes_per_sec = cfg().log_disk_bps;
    lp.pcycle_ns = cfg().pcycle_ns;
    lp.page_bytes = cfg().page_bytes;
    lp.pages_per_cylinder = cfg().pages_per_cylinder;
    lp.cylinders = cfg().disk_cylinders;
    logs_.push_back(std::make_unique<io::LogDisk>(
        lp, rng().fork(0x40 + static_cast<std::uint64_t>(d))));
  }
}

void DcdBackend::startDiskDaemons(int disk_idx) {
  eng().spawn(destageLoop(disk_idx));
}

bool DcdBackend::readFromStage(int disk_idx, sim::PageId page, sim::Tick t,
                               sim::Tick* done, obs::AttrCtx& actx) {
  io::LogDisk& lg = log(disk_idx);
  if (!lg.contains(page)) return false;
  // The current version lives in the log; read it from the log spindle
  // (random access: seek + rotation). No sequential prefetch — log
  // neighbours are unrelated pages.
  const sim::Tick svc = lg.readTime(page);
  const sim::Tick end = lg.arm().request(t, svc);
  actx.add(obs::AttrStage::kDiskQueue, end - svc - t, 0);
  const sim::Tick xfer = lg.pageTransferTicks();
  actx.add(obs::AttrStage::kDiskSeek, 0, svc - xfer);
  actx.add(obs::AttrStage::kDiskTransfer, 0, xfer);
  diskCtx(disk_idx).cache.insertClean(page);
  *done = end;
  return true;
}

sim::Task<> DcdBackend::writeBatch(int disk_idx,
                                   const std::vector<sim::PageId>& batch,
                                   obs::AttrCtx& actx) {
  // Dirty slots append to the log disk sequentially (no seek); the destage
  // daemon copies them to the data disk later.
  io::LogDisk& lg = log(disk_idx);
  const sim::Tick now = eng().now();
  const sim::Tick svc = lg.appendTime(static_cast<int>(batch.size()));
  const sim::Tick t = lg.arm().request(now, svc);
  actx.add(obs::AttrStage::kDiskQueue, t - svc - now, 0);
  actx.add(obs::AttrStage::kDestage, 0, svc);
  co_await eng().waitUntil(t);
  lg.recordAppend(batch);
  if (etl() != nullptr && etl()->enabled(obs::Layer::kDisk)) {
    etl()->span(obs::Layer::kDisk, "disk.log_append", t - svc, svc,
                diskCtx(disk_idx).node, batch.front());
  }
}

sim::Task<> DcdBackend::destageLoop(int disk_idx) {
  Machine::DiskCtx& dc = diskCtx(disk_idx);
  io::LogDisk& lg = log(disk_idx);
  for (;;) {
    const auto page = lg.oldestLive();
    if (!page.has_value()) {
      co_await dc.work.wait();
      continue;
    }
    // Copy log -> data disk only while the data disk is idle (the DCD's
    // defining behaviour); demand reads always come first. Each pass copies
    // the oldest live log page.
    if (dc.disk.arm().wouldQueue(eng().now())) {
      co_await eng().waitUntil(dc.disk.arm().busyUntil());
      continue;
    }

    obs::AttrCtx actx;
    const sim::Tick t0 = eng().now();
    // Read the page from the log spindle (random access)...
    const sim::Tick read_svc = lg.readTime(*page);
    const sim::Tick read_done = lg.arm().request(t0, read_svc);
    actx.add(obs::AttrStage::kDiskQueue, read_done - read_svc - t0, 0);
    actx.add(obs::AttrStage::kDestage, 0, read_svc);
    co_await eng().waitUntil(read_done);
    // ... then write it to the data disk.
    const sim::Tick now = eng().now();
    const sim::Tick write_svc = dc.disk.writeTime(pfs().blockOf(*page), 1);
    const sim::Tick write_done = dc.disk.arm().request(now, write_svc);
    actx.add(obs::AttrStage::kDiskQueue, write_done - write_svc - now, 0);
    actx.add(obs::AttrStage::kDestage, 0, write_svc);
    co_await eng().waitUntil(write_done);
    lg.remove(*page);
    recordDestage(actx, eng().now() - t0, 1);
  }
}

}  // namespace nwc::machine
