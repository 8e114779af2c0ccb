// NWCache interface bookkeeping at an I/O-enabled node.
//
// When a node swaps a page out to the ring it sends a control message to the
// NWCache interface of the I/O node responsible for that page; the interface
// records (page, swapper) in a FIFO associated with the swapper's cache
// channel. The interface's drain loop (driven by the machine model) snoops
// the most heavily loaded channel and copies pages to the disk cache in
// their original swap order, switching channels only when the current one is
// exhausted (paper 3.2 — this ordering is what enables write combining).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "sim/fifo_server.hpp"
#include "sim/types.hpp"

namespace nwc::obs {
class MetricsRegistry;
}

namespace nwc::ring {

/// Geometry of one node's bank of tunable receivers.
struct ReceiverParams {
  int receivers = 2;           // optical receivers per node
  sim::Tick retune_ticks = 0;  // wavelength retune latency (shared mode)
  /// Dedicated mode (the paper's hardware): receiver 0 only drains, the
  /// other only serves victim reads. Shared mode pools the bank: any
  /// receiver serves any use. Either way a receiver pays `retune_ticks`
  /// whenever it must switch to a channel it is not tuned to (0 by default,
  /// matching the paper's assumption of free retuning).
  bool dedicated = true;
};

/// One node's tunable optical receivers, modelled as contended FIFO
/// resources. The NWCache needs exactly two receiver roles per node — the
/// write-behind drain and the victim read (paper 3.2) — and with the default
/// dedicated two-receiver bank this reproduces that hardware. Scaling the
/// channel count past the node count (OTDM) makes the receivers the shared
/// bottleneck, which is what the channel-scaling study measures.
class TunableReceiverBank {
 public:
  enum class Use {
    kDrain,  // write-behind copy of a staged page toward the disk cache
    kFault,  // victim read snooping a faulted page off the ring
  };

  /// Outcome of one receiver reservation.
  struct Grant {
    sim::Tick done = 0;    // completion time of the transfer
    sim::Tick queued = 0;  // waited for the receiver (contention)
    sim::Tick retune = 0;  // retune latency charged before the transfer
    int receiver = 0;      // which receiver served the request
  };

  TunableReceiverBank(const ReceiverParams& p, const std::string& name);

  /// Reserves a receiver at `now` for a transfer of `service` ticks from
  /// `channel`. Dedicated mode routes by use; shared mode picks the
  /// earliest-available receiver (ties prefer one already tuned to
  /// `channel`, then the lowest index) and charges a retune when it was
  /// tuned elsewhere.
  Grant request(sim::Tick now, Use use, int channel, sim::Tick service);

  int receivers() const { return static_cast<int>(rx_.size()); }
  const sim::FifoServer& receiver(int i) const {
    return rx_[static_cast<std::size_t>(i)];
  }
  std::uint64_t retunes() const { return retunes_; }

 private:
  ReceiverParams params_;
  std::vector<sim::FifoServer> rx_;
  std::vector<int> tuned_;  // channel each receiver is tuned to; -1 = none
  std::uint64_t retunes_ = 0;
};

struct SwapRecord {
  sim::PageId page = sim::kNoPage;
  sim::NodeId swapper = sim::kNoNode;
  std::uint64_t seq = 0;  // global swap-out order stamp
};

class NwcFifos {
 public:
  explicit NwcFifos(int channels);

  void push(int channel, const SwapRecord& rec);

  int size(int channel) const;
  int totalSize() const;
  bool empty() const { return totalSize() == 0; }

  /// Channel with the most queued records (ties -> lowest id); -1 if empty.
  int heaviestChannel() const;

  /// Oldest record of `channel` without removing it.
  std::optional<SwapRecord> front(int channel) const;

  /// Pops the oldest record of `channel`.
  std::optional<SwapRecord> popFront(int channel);

  /// Removes the record for `page` wherever it is queued (victim-read
  /// notification: the page went back to memory, do not write it to disk).
  std::optional<SwapRecord> removePage(sim::PageId page);

  std::uint64_t pushes() const { return pushes_; }

  /// Registers interface statistics under `prefix` (e.g. "iface0.").
  void publishMetrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  std::vector<std::deque<SwapRecord>> fifos_;
  std::uint64_t pushes_ = 0;
};

}  // namespace nwc::ring
