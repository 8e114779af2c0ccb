#include "machine/backends/remote_backend.hpp"

namespace nwc::machine {

using vm::PageState;

RemoteBackend::RemoteBackend(Machine& m)
    : IoBackend(m),
      remote_stored_(static_cast<std::size_t>(m.config().num_nodes)) {}

sim::NodeId RemoteBackend::findSpareDonor(sim::NodeId self) const {
  sim::NodeId best = sim::kNoNode;
  int best_spare = 0;
  for (int n = 0; n < cfg().num_nodes; ++n) {
    if (n == self) continue;
    const auto& fp = node(n).frames;
    const int spare = fp.freeFrames() - fp.minFree();
    if (spare > best_spare) {
      best_spare = spare;
      best = n;
    }
  }
  return best;
}

sim::Task<> RemoteBackend::swapOut(sim::NodeId n, sim::PageId page,
                                   bool force_disk, obs::AttrCtx& actx) {
  const sim::NodeId donor = force_disk ? sim::kNoNode : findSpareDonor(n);
  if (donor == sim::kNoNode) {
    // The paper's expected case on an out-of-core multiprocessor: every
    // node is part of the computation, nobody has spare memory. (Guest
    // evictions arrive here with force_disk set: guests go onward to disk,
    // never donor-to-donor.)
    if (!force_disk) ++metrics().remote_fallbacks;
    co_await swapOutToDisk(n, page, actx);
    co_return;
  }
  actx.setOutcome(obs::AttrOutcome::kRemote);

  // Claim the donor frame synchronously, then ship the page across the
  // mesh: source memory bus -> mesh -> donor memory bus.
  Machine::NodeCtx& dn = node(donor);
  dn.frames.consumeFrame();
  remote_stored_[static_cast<std::size_t>(donor)].push_back(page);

  sim::Tick t = attrRequest(actx, obs::AttrStage::kMemBus, node(n).mem_bus,
                            eng().now(), pageSerMembus());
  t = attrMeshTransfer(actx, t, n, donor, cfg().page_bytes,
                       net::TrafficClass::kSwapOut);
  t = attrRequest(actx, obs::AttrStage::kMemBus, dn.mem_bus, t, pageSerMembus());
  co_await eng().waitUntil(t);

  vm::PageEntry& e = pt().entry(page);
  e.home = donor;  // the holder of the only copy
  pt().setState(page, PageState::kRemote);
  ++metrics().remote_stores;
  // e.dirty stays true: the modifications never reached the disk.
  dn.replace_kick.notifyAll();  // the donor may now be below its reserve
}

bool RemoteBackend::takeGuestVictim(sim::NodeId n) {
  // Guest pages parked here by other nodes are evicted (to disk) before any
  // of this node's own working set.
  auto& guests = remote_stored_[static_cast<std::size_t>(n)];
  if (guests.empty()) return false;
  const sim::PageId guest = guests.front();
  guests.pop_front();
  vm::PageEntry& ge = pt().entry(guest);
  if (ge.state != PageState::kRemote || ge.home != n) return true;  // stale
  ge.home = sim::kNoNode;
  pt().setState(guest, PageState::kSwapping);
  ++metrics().remote_evictions;
  ++node(n).swaps_in_flight;
  eng().spawn(machineSwapOut(n, guest, /*force_disk=*/true));
  return true;
}

FetchPlan RemoteBackend::planFetch(sim::PageId page, const vm::PageEntry& e) {
  (void)page;
  FetchPlan plan;
  if (e.state == PageState::kRemote) {
    plan.route = FetchPlan::Route::kRemote;
    plan.remote_holder = e.home;
  }
  return plan;
}

sim::Task<bool> RemoteBackend::fetch(int cpu, sim::PageId page,
                                     const FetchPlan& plan, obs::AttrCtx& actx) {
  if (plan.route == FetchPlan::Route::kRemote) {
    co_await fetchFromRemote(cpu, page, plan.remote_holder, actx);
    co_return false;
  }
  co_return co_await fetchFromDisk(cpu, page, actx);
}

sim::Task<> RemoteBackend::fetchFromRemote(int cpu, sim::PageId page,
                                           sim::NodeId holder,
                                           obs::AttrCtx& actx) {
  // Pull the page straight out of the donor's memory — request message,
  // donor memory bus, page over the mesh, local memory bus. The donor's
  // frame frees on departure.
  Machine::NodeCtx& dn = node(holder);
  auto& guests = remote_stored_[static_cast<std::size_t>(holder)];
  for (auto it = guests.begin(); it != guests.end(); ++it) {
    if (*it == page) {
      guests.erase(it);
      break;
    }
  }

  sim::Tick t = ctrlTransfer(eng().now(), cpu, holder, &actx);
  t = attrRequest(actx, obs::AttrStage::kMemBus, dn.mem_bus, t, pageSerMembus());
  t = attrMeshTransfer(actx, t, holder, cpu, cfg().page_bytes,
                       net::TrafficClass::kPageRead);
  t = attrRequest(actx, obs::AttrStage::kMemBus, node(cpu).mem_bus, t,
                  pageSerMembus());
  co_await eng().waitUntil(t);

  dn.frames.releaseFrame();
  dn.frame_freed.notifyAll();
  ++metrics().remote_fetches;
}

void RemoteBackend::checkInvariants(std::ostream& bad) const {
  for (std::int64_t p = 0; p < pt().numPages(); ++p) {
    const vm::PageEntry& e = pt().entry(p);
    if (e.state != PageState::kRemote) continue;
    if (e.home == sim::kNoNode) {
      bad << "page " << p << ": remote without a holder\n";
      continue;
    }
    const auto& stored = remote_stored_[static_cast<std::size_t>(e.home)];
    bool found = false;
    for (sim::PageId q : stored) found = found || q == p;
    if (!found) {
      bad << "page " << p << ": remote but absent from node " << e.home
          << "'s guest list\n";
    }
  }
}

}  // namespace nwc::machine
