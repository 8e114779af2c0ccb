// NWCache backend (SystemKind::kNWCache, paper 3.2): swap-outs go onto the
// node's own optical cache channel(s) through the local I/O bus — no mesh
// crossing, and the frame is reusable as soon as the page is on the ring.
// The NWCache interface at each I/O node drains the heaviest channel into
// the disk cache in swap order (write combining); faults on staged pages are
// served by victim reads snooping the ring.
//
// Every node snoops through a bank of tunable receivers
// (ring::TunableReceiverBank), the contended resource the channel-scaling
// study measures: `ring_channels` may exceed the node count (OTDM slots),
// with ownership striped node -> {c : c % stride == node % stride}.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "machine/backends/cache_policy.hpp"
#include "machine/backends/io_backend.hpp"
#include "nwcache/interface.hpp"
#include "nwcache/optical_ring.hpp"

namespace nwc::machine {

class RingBackend : public IoBackend {
 public:
  explicit RingBackend(Machine& m);

  sim::Task<> swapOut(sim::NodeId n, sim::PageId page, bool force_disk,
                      obs::AttrCtx& actx) override;
  bool faultMustWait(vm::PageState s) const override {
    // In the victim-read ablation a staged page is unreachable until the
    // interface drains it; faults on it stall (charged NoFree).
    return s == vm::PageState::kSwapping ||
           (s == vm::PageState::kRing && !cfg().ring_victim_reads);
  }
  bool fetchableState(vm::PageState s) const override {
    return s == vm::PageState::kDisk || s == vm::PageState::kRing;
  }
  FetchPlan planFetch(sim::PageId page, const vm::PageEntry& e) override;
  sim::Task<bool> fetch(int cpu, sim::PageId page, const FetchPlan& plan,
                        obs::AttrCtx& actx) override;
  void startDiskDaemons(int disk_idx) override;
  void publishMetrics(obs::MetricsRegistry& reg) const override;
  void checkInvariants(std::ostream& bad) const override;
  int stagedPages() const override { return ring_->totalOccupancy(); }
  std::uint64_t receiverRetunes() const override {
    std::uint64_t n = 0;
    for (const auto& bank : rx_banks_) n += bank.retunes();
    return n;
  }

  ring::OpticalRing* ring() override { return ring_.get(); }
  ring::NwcFifos* fifos(int disk_idx) override {
    return &nwc_fifos_[static_cast<std::size_t>(disk_idx)];
  }

  /// Receiver bank of node `n` (white-box tests / sweeps).
  const ring::TunableReceiverBank& receiverBank(sim::NodeId n) const {
    return rx_banks_[static_cast<std::size_t>(n)];
  }
  ring::TunableReceiverBank& receiverBank(sim::NodeId n) {
    return rx_banks_[static_cast<std::size_t>(n)];
  }

 private:
  // --- channel ownership (supports ring_channels >> num_nodes) -------------
  int ownershipStride() const;
  /// Number of cache channels node `n` may transmit on.
  int ownedChannels(sim::NodeId n) const;
  /// The k-th channel owned by node `n`.
  int ownedChannel(sim::NodeId n, int k) const;
  /// First owned channel with room, scanning round-robin from the node's
  /// cursor (advancing it); falls back to the cursor channel when all of
  /// them are full, so the caller can wait on that channel's room signal.
  int pickChannel(sim::NodeId n);

  sim::Task<> deliverSwapRecord(int disk_idx, int channel, sim::PageId page,
                                sim::NodeId swapper, std::uint64_t seq);
  sim::Task<> fetchFromRing(int cpu, sim::PageId page, obs::AttrCtx& actx);
  sim::Task<> ringBackgroundRequest(int cpu, sim::PageId page);
  sim::Task<> nwcDrainLoop(int disk_idx);
  sim::Task<> deliverRingAck(int channel, sim::PageId page, sim::NodeId io_node,
                             sim::NodeId swapper);
  sim::Task<> notifyRingVictimRead(sim::NodeId reader, sim::PageId page,
                                   int channel);
  void releaseRingSlot(int channel, sim::PageId page);

  std::unique_ptr<ring::OpticalRing> ring_;
  std::vector<ring::NwcFifos> nwc_fifos_;               // one per I/O node
  std::vector<std::unique_ptr<sim::Signal>> ring_room_;  // one per channel
  std::vector<ring::TunableReceiverBank> rx_banks_;      // one per node
  std::vector<int> cursors_;      // per node: round-robin owned-channel index
  std::uint64_t swap_seq_ = 0;    // global swap-out order stamp
  std::unique_ptr<SieveAdmission> sieve_;  // null under ring_admission=always
};

}  // namespace nwc::machine
