#include "machine/backends/ring_backend.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "obs/registry.hpp"
#include "obs/timeline.hpp"
#include "util/units.hpp"

namespace nwc::machine {

using vm::PageState;

RingBackend::RingBackend(Machine& m) : IoBackend(m) {
  ring::RingParams rp;
  rp.channels = cfg().ring_channels;
  rp.channel_capacity_bytes = cfg().ring_channel_bytes;
  rp.round_trip_us = cfg().ring_round_trip_us;
  rp.bytes_per_sec = cfg().ring_bps;
  rp.pcycle_ns = cfg().pcycle_ns;
  rp.page_bytes = cfg().page_bytes;
  ring_ = std::make_unique<ring::OpticalRing>(rp);
  for (int i = 0; i < cfg().num_io_nodes; ++i) {
    nwc_fifos_.emplace_back(cfg().ring_channels);
  }
  for (int c = 0; c < cfg().ring_channels; ++c) {
    ring_room_.push_back(std::make_unique<sim::Signal>(eng()));
  }
  ring::ReceiverParams rxp;
  rxp.receivers = cfg().ring_receivers;
  rxp.retune_ticks = util::usToTicks(cfg().ring_retune_us, cfg().pcycle_ns);
  rxp.dedicated = !cfg().ring_shared_receivers;
  for (int n = 0; n < cfg().num_nodes; ++n) {
    rx_banks_.emplace_back(rxp, "node" + std::to_string(n));
  }
  cursors_.assign(static_cast<std::size_t>(cfg().num_nodes), 0);
}

int RingBackend::ownershipStride() const {
  return std::min(cfg().ring_channels, cfg().num_nodes);
}

int RingBackend::ownedChannels(sim::NodeId n) const {
  const int stride = ownershipStride();
  const int base = static_cast<int>(n) % stride;
  return (cfg().ring_channels - base + stride - 1) / stride;
}

int RingBackend::ownedChannel(sim::NodeId n, int k) const {
  return static_cast<int>(n) % ownershipStride() + k * ownershipStride();
}

int RingBackend::pickChannel(sim::NodeId n) {
  const int count = ownedChannels(n);
  int& cur = cursors_[static_cast<std::size_t>(n)];
  for (int i = 0; i < count; ++i) {
    const int k = (cur + i) % count;
    const int ch = ownedChannel(n, k);
    if (ring_->hasRoom(ch)) {
      cur = (k + 1) % count;
      return ch;
    }
  }
  // Every owned channel is full; the caller waits for room on this one (a
  // full channel always eventually drains or is victim-read, so its room
  // signal is guaranteed to fire).
  return ownedChannel(n, cur);
}

sim::Task<> RingBackend::swapOut(sim::NodeId n, sim::PageId page,
                                 obs::AttrCtx& actx) {
  vm::PageEntry& e = pt().entry(page);
  actx.setOutcome(obs::AttrOutcome::kRing);

  // A swap-out to the NWCache needs room on one of the node's own cache
  // channels; time spent waiting for a slot is queueing on the ring.
  const sim::Tick room0 = eng().now();
  int ch = pickChannel(n);
  while (!ring_->hasRoom(ch)) {
    co_await ring_room_[static_cast<std::size_t>(ch)]->wait();
    ch = pickChannel(n);
  }
  actx.add(obs::AttrStage::kRing, eng().now() - room0, 0);
  ring_->reserve(ch);  // claim the slot before the (timed) transmit

  // Page data: local memory bus -> local I/O bus -> fixed transmitter.
  // No mesh crossing: this is the contention benefit.
  sim::Tick t = attrRequest(actx, obs::AttrStage::kMemBus, node(n).mem_bus,
                            eng().now(), pageSerMembus());
  t = attrRequest(actx, obs::AttrStage::kIoBus, node(n).io_bus, t,
                  pageSerIobus());
  t = attrRequest(actx, obs::AttrStage::kRing, ring_->channelTx(ch), t,
                  ring_->pageTransferTicks());
  co_await eng().waitUntil(t);

  ring_->insert(ch, page);
  e.ring_channel = ch;
  pt().setState(page, PageState::kRing);  // Ring bit set; frame reusable now

  // Metadata message to the NWCache interface of the responsible I/O node.
  const int di = diskIndexOf(page);
  const std::uint64_t seq = ++swap_seq_;
  eng().spawn(deliverSwapRecord(di, ch, page, n, seq));
}

sim::Task<> RingBackend::deliverSwapRecord(int disk_idx, int channel,
                                           sim::PageId page, sim::NodeId swapper,
                                           std::uint64_t seq) {
  Machine::DiskCtx& dc = diskCtx(disk_idx);
  if (!cfg().ring_bypass_network) {
    // Ablation: route even the metadata as if swap-outs crossed the mesh.
    co_await eng().waitUntil(meshTransfer(eng().now(), swapper, dc.node,
                                          cfg().page_bytes,
                                          net::TrafficClass::kSwapOut));
  } else {
    co_await eng().waitUntil(ctrlTransfer(eng().now(), swapper, dc.node));
  }
  // Only queue the record if the page is still on the ring (it may already
  // have been re-mapped by a victim read).
  if (pt().entry(page).state == PageState::kRing) {
    nwc_fifos_[static_cast<std::size_t>(disk_idx)].push(
        channel, ring::SwapRecord{page, swapper, seq});
    dc.work.notifyAll();
  }
}

FetchPlan RingBackend::planFetch(sim::PageId page, const vm::PageEntry& e) {
  FetchPlan plan;
  if (e.state == PageState::kRing && cfg().ring_victim_reads) {
    plan.route = FetchPlan::Route::kRing;
    // Claim the page from the NWCache interface right away so its drain
    // loop skips the record; the control message we send from fetchFromRing
    // only carries the ACK timing.
    nwc_fifos_[static_cast<std::size_t>(diskIndexOf(page))].removePage(page);
  }
  return plan;
}

sim::Task<bool> RingBackend::fetch(int cpu, sim::PageId page,
                                   const FetchPlan& plan, obs::AttrCtx& actx) {
  if (plan.route == FetchPlan::Route::kRing) {
    metrics().ring_read_hits.hit();
    co_await fetchFromRing(cpu, page, actx);
    co_return false;
  }
  metrics().ring_read_hits.miss();
  co_return co_await fetchFromDisk(cpu, page, actx);
}

sim::Task<> RingBackend::fetchFromRing(int cpu, sim::PageId page,
                                       obs::AttrCtx& actx) {
  vm::PageEntry& e = pt().entry(page);
  const int ch = e.ring_channel;

  // Snoop the page off the swapper's cache channel: wait for it to
  // circulate past this node, pull it through a tunable receiver, then
  // cross the local I/O and memory buses. Circulation + receiver transfer
  // is ring service; contention for the node's receiver bank is queue, and
  // any wavelength retune is its own stage.
  const sim::Tick circulate = rng().below(ring_->roundTripTicks());
  const sim::Tick service = circulate + ring_->pageTransferTicks();
  const ring::TunableReceiverBank::Grant g =
      rx_banks_[static_cast<std::size_t>(cpu)].request(
          eng().now(), ring::TunableReceiverBank::Use::kFault, ch, service);
  actx.add(obs::AttrStage::kRing, g.queued, service);
  if (g.retune > 0) actx.add(obs::AttrStage::kRingRetune, 0, g.retune);
  sim::Tick t = g.done;
  t = attrRequest(actx, obs::AttrStage::kIoBus, node(cpu).io_bus, t,
                  pageSerIobus());
  t = attrRequest(actx, obs::AttrStage::kMemBus, node(cpu).mem_bus, t,
                  pageSerMembus());

  // Tell the responsible I/O node the page went back to memory (off the
  // critical path).
  eng().spawn(notifyRingVictimRead(cpu, page, ch));

  // Under optimal prefetching the machinery has usually already launched
  // the disk request; it cannot be aborted in time, so the network and the
  // I/O node still carry the (discarded) transfer.
  if (cfg().prefetch == Prefetch::kOptimal) {
    ++metrics().ring_aborted_requests;
    eng().spawn(ringBackgroundRequest(cpu, page));
  }

  co_await eng().waitUntil(t);
}

sim::Task<> RingBackend::ringBackgroundRequest(int cpu, sim::PageId page) {
  const int di = diskIndexOf(page);
  Machine::DiskCtx& dc = diskCtx(di);
  const sim::NodeId io = dc.node;
  sim::Tick t = ctrlTransfer(eng().now(), cpu, io);
  co_await eng().waitUntil(t + cfg().controller_overhead);
  t = node(io).io_bus.request(eng().now(), pageSerIobus());
  t = meshTransfer(t, io, cpu, cfg().page_bytes, net::TrafficClass::kPageRead);
  co_await eng().waitUntil(t);
  // Data discarded on arrival: the ring already delivered the page.
}

sim::Task<> RingBackend::nwcDrainLoop(int disk_idx) {
  Machine::DiskCtx& dc = diskCtx(disk_idx);
  ring::NwcFifos& fifos = nwc_fifos_[static_cast<std::size_t>(disk_idx)];

  for (;;) {
    // Pick the most heavily loaded channel (paper 3.2) and drain a burst
    // from it in swap order. The controller's write-behind is only told
    // about the staged pages once the burst ends, so consecutive pages of
    // one node combine into a single physical write.
    const int ch = fifos.heaviestChannel();
    if (ch < 0) {
      co_await dc.work.wait();
      continue;
    }

    // Write-behind pacing: only start pulling pages off the ring when the
    // disk can absorb them promptly. While the arm is saturated with demand
    // reads the swap-outs stay parked on the ring (where victim reads can
    // still rescue them); this is the ring's staging role.
    if (dc.disk.arm().wouldQueue(eng().now())) {
      co_await eng().waitUntil(dc.disk.arm().busyUntil());
      continue;
    }

    bool must_circulate = true;  // first page of a burst waits to pass by
    bool copied_any = false;
    sim::Signal* block_on = nullptr;  // non-null: who to wait for when stuck

    while (true) {
      const auto rec = fifos.front(ch);
      if (!rec.has_value()) break;  // channel exhausted
      if (!dc.cache.hasRoomForWrite(rec->page)) {
        if (!copied_any) block_on = &dc.work;
        break;  // burst over: the controller must make room first
      }

      vm::PageEntry& e = pt().entry(rec->page);
      // Never block on the entry mutex: the holder may be a fault that is
      // itself waiting for frames whose swap-outs need our ACKs. A locking
      // fault removes its record synchronously, so on a failed try-lock the
      // front record has normally already changed; the signal fallback
      // guards against same-record spins.
      if (!e.mutex.tryLock()) {
        const auto now_front = fifos.front(ch);
        if (now_front.has_value() && now_front->page == rec->page) {
          if (!copied_any) block_on = &e.changed;
          break;
        }
        must_circulate = true;
        continue;  // front changed: retry with the new head record
      }
      sim::CoMutex::Guard guard(&e.mutex);

      // Re-validate under the mutex: a victim read may have removed the
      // record, or the page may have been re-mapped to memory.
      const auto cur = fifos.front(ch);
      if (!cur.has_value() || cur->page != rec->page) {
        guard.release();
        must_circulate = true;
        continue;
      }
      if (e.state != PageState::kRing || e.ring_channel != ch) {
        fifos.popFront(ch);  // stale: the victim-read path owns the ACK
        guard.release();
        must_circulate = true;
        continue;
      }

      // Copy the page off the ring into the disk cache through the I/O
      // node's receiver bank. Consecutive pages of one channel stream past
      // back-to-back; only the first needs a circulation wait.
      const sim::Tick circulate =
          must_circulate ? rng().below(ring_->roundTripTicks()) : 0;
      must_circulate = false;
      const sim::Tick r0 = eng().now();
      const sim::Tick t =
          rx_banks_[static_cast<std::size_t>(dc.node)]
              .request(r0, ring::TunableReceiverBank::Use::kDrain, ch,
                       circulate + ring_->pageTransferTicks())
              .done;
      co_await eng().waitUntil(t);
      if (etl() != nullptr && etl()->enabled(obs::Layer::kRing)) {
        etl()->span(obs::Layer::kRing, "ring.drain", r0, t - r0, dc.node,
                    rec->page);
      }

      fifos.popFront(ch);
      const bool staged = dc.cache.insertDirty(rec->page);
      (void)staged;  // room was checked above and only this loop stages here
      pt().setState(rec->page, PageState::kDisk);
      pt().entry(rec->page).dirty = false;
      copied_any = true;

      // ACK travels back to the swapper; the ring slot frees on receipt.
      eng().spawn(deliverRingAck(ch, rec->page, dc.node, rec->swapper));
    }

    if (copied_any) {
      dc.work.notifyAll();  // hand the whole staged burst to the write-behind
    } else if (block_on != nullptr) {
      co_await block_on->wait();
    }
  }
}

sim::Task<> RingBackend::deliverRingAck(int channel, sim::PageId page,
                                        sim::NodeId io_node, sim::NodeId swapper) {
  co_await eng().waitUntil(ctrlTransfer(eng().now(), io_node, swapper));
  releaseRingSlot(channel, page);
}

sim::Task<> RingBackend::notifyRingVictimRead(sim::NodeId reader, sim::PageId page,
                                              int channel) {
  const int di = diskIndexOf(page);
  Machine::DiskCtx& dc = diskCtx(di);
  co_await eng().waitUntil(ctrlTransfer(eng().now(), reader, dc.node));
  // Drop the pending write record, if it is still queued; either way the
  // swapper (the channel's owner node) must learn its slot is reusable.
  nwc_fifos_[static_cast<std::size_t>(di)].removePage(page);
  co_await deliverRingAck(channel, page, dc.node,
                          static_cast<sim::NodeId>(channel % cfg().num_nodes));
}

void RingBackend::releaseRingSlot(int channel, sim::PageId page) {
  if (ring_->remove(channel, page)) {
    ring_room_[static_cast<std::size_t>(channel)]->notifyAll();
  }
}

void RingBackend::startDiskDaemons(int disk_idx) {
  eng().spawn(nwcDrainLoop(disk_idx));
}

void RingBackend::publishMetrics(obs::MetricsRegistry& reg) const {
  ring_->publishMetrics(reg, "ring.");
  std::uint64_t pushes = 0;
  for (std::size_t d = 0; d < nwc_fifos_.size(); ++d) {
    nwc_fifos_[d].publishMetrics(reg, "iface" + std::to_string(d) + ".");
    pushes += nwc_fifos_[d].pushes();
  }
  reg.counter("iface.pushes", pushes);

  // Tunable receivers, aggregated over the node banks: per receiver index
  // (slot 0 is the drain receiver in dedicated mode) and bank-wide totals.
  const int nrx = rx_banks_.empty() ? 0 : rx_banks_.front().receivers();
  std::uint64_t all_jobs = 0;
  sim::Tick all_busy = 0, all_queued = 0;
  for (int i = 0; i < nrx; ++i) {
    std::uint64_t jobs = 0;
    sim::Tick busy = 0, queued = 0;
    for (const auto& bank : rx_banks_) {
      const sim::FifoServer& rx = bank.receiver(i);
      jobs += rx.jobs();
      busy += rx.busyTicks();
      queued += rx.queuedTicks();
    }
    const std::string p = "ring.receiver" + std::to_string(i) + ".";
    reg.counter(p + "jobs", jobs);
    reg.counter(p + "busy_ticks", static_cast<std::uint64_t>(busy));
    reg.counter(p + "queued_ticks", static_cast<std::uint64_t>(queued));
    all_jobs += jobs;
    all_busy += busy;
    all_queued += queued;
  }
  std::uint64_t retunes = 0;
  for (const auto& bank : rx_banks_) retunes += bank.retunes();
  reg.counter("ring.receiver.jobs", all_jobs);
  reg.counter("ring.receiver.busy_ticks", static_cast<std::uint64_t>(all_busy));
  reg.counter("ring.receiver.queued_ticks",
              static_cast<std::uint64_t>(all_queued));
  reg.counter("ring.receiver.retunes", retunes);
}

void RingBackend::checkInvariants(std::ostream& bad) const {
  // One pass over the stored pages (not pages x channels: the channel count
  // may be in the thousands under the OTDM scaling study).
  std::unordered_map<sim::PageId, int> copies;
  for (int c = 0; c < ring_->channels(); ++c) {
    for (sim::PageId p : ring_->pagesOn(c)) ++copies[p];
  }
  for (const auto& [p, count] : copies) {
    if (count > 1) {
      bad << "page " << p << ": on " << count << " ring channels\n";
    }
    if (pt().entry(p).state == PageState::kResident) {
      bad << "page " << p << ": resident AND on ring\n";
    }
  }
  for (std::int64_t p = 0; p < pt().numPages(); ++p) {
    if (pt().entry(p).state == PageState::kRing && copies.count(p) == 0) {
      bad << "page " << p << ": Ring bit set but not stored on any channel\n";
    }
  }
}

}  // namespace nwc::machine
