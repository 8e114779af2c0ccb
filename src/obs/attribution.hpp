// Cross-layer latency attribution: stage-tagged span accounting for the
// fault-service and swap-out critical paths.
//
// Each in-flight operation (page fault, swap-out, TLB shootdown) carries an
// AttrCtx down its critical path; every stage it crosses — the mesh, the
// memory and I/O buses, the optical ring, the disk queue/arm/controller —
// records how long the operation *waited* (queue) and how long it was
// *served* (service) there. When the operation completes, the machine hands
// the context plus the measured end-to-end latency to the AttrAccountant,
// which folds it into per-(op, outcome) groups: exact tick sums per stage
// and log2 latency histograms, published into the MetricsRegistry under
// `attr.*`.
//
// The hard invariant: for every record, the attributed stage ticks sum
// EXACTLY to the measured end-to-end latency — no unattributed residual,
// no double counting. Ticks are integers, so this is exact equality, and
// `record()` checks it on every operation; violations are counted (and the
// first one is described) so a test can assert there were none.
//
// Accounting is always on: it adds no simulated events, draws no random
// numbers, and never changes a timestamp, so a machine with attribution
// produces byte-identical outputs to one without.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace nwc::obs {

class MetricsRegistry;

/// A stage of a fault/swap critical path. Order is export order.
enum class AttrStage : std::uint8_t {
  kMesh,          // wormhole mesh hops (control messages + page transfers)
  kMemBus,        // memory bus at the faulting / donor node
  kIoBus,         // I/O bus between node and disk / ring interface
  kRing,          // optical ring: circulation search, receiver, channel TX
  kDiskQueue,     // waiting for the disk arm (requests queued ahead of us)
  kDiskSeek,      // arm seek + rotational positioning
  kDiskTransfer,  // platter / log data transfer
  kDiskCtrl,      // disk controller: fixed overhead + NACK retry waits
  kTlbShootdown,  // TLB shootdown penalty (its own op, see AttrOp)
  kRingRetune,    // tunable-receiver retune latency (shared-receiver mode)
  kDestage,       // destage service: the physical write (and, for the DCD,
                  // the log read) moving staged data to stable storage
  kNumStages,
};

inline constexpr int kNumAttrStages = static_cast<int>(AttrStage::kNumStages);

/// The operation being attributed. kDestage covers the write-behind's
/// combined controller-cache batches and the DCD's log-to-data-disk copies
/// (both off the processors' critical path, but they occupy the arm that
/// demand reads queue behind).
enum class AttrOp : std::uint8_t { kFault, kSwap, kShootdown, kDestage, kNumOps };

inline constexpr int kNumAttrOps = static_cast<int>(AttrOp::kNumOps);

/// How the operation was satisfied. For faults: page found circulating on
/// the ring, hit in the disk controller cache, read from the platter/log,
/// or fetched from a remote node's memory. For swap-outs: staged onto the
/// ring, accepted by the controller cache (standard disk path), or pushed
/// to a donor frame. Shootdowns use kNone.
enum class AttrOutcome : std::uint8_t {
  kRing,
  kCtrlCache,
  kPlatter,
  kRemote,
  kNone,
  kNumOutcomes,
};

inline constexpr int kNumAttrOutcomes = static_cast<int>(AttrOutcome::kNumOutcomes);

const char* toString(AttrStage s);
const char* toString(AttrOp o);
const char* toString(AttrOutcome o);

/// Queue-wait vs service split of the ticks a stage charged an operation.
struct StageTicks {
  sim::Tick queue = 0;
  sim::Tick service = 0;
  sim::Tick total() const { return queue + service; }
};

/// Per-operation attribution context, carried down the critical path.
class AttrCtx {
 public:
  void add(AttrStage s, sim::Tick queue, sim::Tick service) {
    auto& st = stages_[static_cast<std::size_t>(s)];
    st.queue += queue;
    st.service += service;
  }

  const StageTicks& stage(AttrStage s) const {
    return stages_[static_cast<std::size_t>(s)];
  }
  const std::array<StageTicks, kNumAttrStages>& stages() const { return stages_; }

  /// Sum of queue + service across all stages.
  sim::Tick total() const {
    sim::Tick t = 0;
    for (const auto& st : stages_) t += st.total();
    return t;
  }

  /// Set by the swap sub-paths so the dispatcher knows where the page went.
  AttrOutcome outcome() const { return outcome_; }
  void setOutcome(AttrOutcome o) { outcome_ = o; }

 private:
  std::array<StageTicks, kNumAttrStages> stages_{};
  AttrOutcome outcome_ = AttrOutcome::kNone;
};

/// Aggregate for one (op, outcome) group.
struct AttrGroup {
  std::uint64_t count = 0;
  std::uint64_t end_to_end_ticks = 0;
  std::array<StageTicks, kNumAttrStages> stages{};
  sim::Log2Histogram latency_hist;  // end-to-end per record
  std::array<sim::Log2Histogram, kNumAttrStages> stage_hist{};  // per-record stage totals
};

/// The accountant: folds completed AttrCtx records into per-(op, outcome)
/// aggregates and publishes them. Lives inside machine::Metrics.
class AttrAccountant {
 public:
  /// Fold one completed operation in. Checks the conservation invariant:
  /// ctx stage ticks must sum exactly to `end_to_end`.
  void record(AttrOp op, AttrOutcome outcome, sim::Tick end_to_end, const AttrCtx& ctx);

  const AttrGroup& group(AttrOp op, AttrOutcome outcome) const {
    return groups_[index(op, outcome)];
  }

  std::uint64_t records() const { return records_; }
  std::uint64_t conservationViolations() const { return violations_; }
  /// Human-readable description of the first violation ("" if none).
  const std::string& firstViolation() const { return first_violation_; }

  /// Export as `<prefix>records`, `<prefix>conservation_violations`, and per
  /// non-empty group `<prefix><op>.<outcome>.{count,end_to_end_ticks,
  /// latency_pcycles}` plus, per stage that charged any ticks,
  /// `...<stage>.{queue_ticks,service_ticks,ticks_pcycles}`.
  void publish(MetricsRegistry& reg, const std::string& prefix = "attr.") const;

 private:
  static std::size_t index(AttrOp op, AttrOutcome outcome) {
    return static_cast<std::size_t>(op) * kNumAttrOutcomes +
           static_cast<std::size_t>(outcome);
  }

  std::array<AttrGroup, kNumAttrOps * kNumAttrOutcomes> groups_{};
  std::uint64_t records_ = 0;
  std::uint64_t violations_ = 0;
  std::string first_violation_;
};

}  // namespace nwc::obs
