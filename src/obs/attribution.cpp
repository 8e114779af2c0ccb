#include "obs/attribution.hpp"

#include <sstream>

#include "obs/registry.hpp"

namespace nwc::obs {

const char* toString(AttrStage s) {
  switch (s) {
    case AttrStage::kMesh: return "mesh";
    case AttrStage::kMemBus: return "mem_bus";
    case AttrStage::kIoBus: return "io_bus";
    case AttrStage::kRing: return "ring";
    case AttrStage::kDiskQueue: return "disk_queue";
    case AttrStage::kDiskSeek: return "disk_seek";
    case AttrStage::kDiskTransfer: return "disk_transfer";
    case AttrStage::kDiskCtrl: return "disk_ctrl";
    case AttrStage::kTlbShootdown: return "tlb_shootdown";
    case AttrStage::kRingRetune: return "ring_retune";
    case AttrStage::kDestage: return "destage";
    case AttrStage::kNumStages: break;
  }
  return "?";
}

const char* toString(AttrOp o) {
  switch (o) {
    case AttrOp::kFault: return "fault";
    case AttrOp::kSwap: return "swap";
    case AttrOp::kShootdown: return "shootdown";
    case AttrOp::kDestage: return "destage";
    case AttrOp::kNumOps: break;
  }
  return "?";
}

const char* toString(AttrOutcome o) {
  switch (o) {
    case AttrOutcome::kRing: return "ring";
    case AttrOutcome::kCtrlCache: return "ctrl_cache";
    case AttrOutcome::kPlatter: return "platter";
    case AttrOutcome::kNone: return "all";
    case AttrOutcome::kNumOutcomes: break;
  }
  return "?";
}

void AttrAccountant::record(AttrOp op, AttrOutcome outcome, sim::Tick end_to_end,
                            const AttrCtx& ctx) {
  ++records_;
  const sim::Tick attributed = ctx.total();
  if (attributed != end_to_end) {
    ++violations_;
    if (first_violation_.empty()) {
      std::ostringstream os;
      os << toString(op) << "/" << toString(outcome) << ": attributed "
         << attributed << " != end-to-end " << end_to_end;
      first_violation_ = os.str();
    }
  }
  AttrGroup& g = groups_[index(op, outcome)];
  ++g.count;
  g.end_to_end_ticks += end_to_end;
  g.latency_hist.add(end_to_end);
  for (int s = 0; s < kNumAttrStages; ++s) {
    const StageTicks& st = ctx.stages()[static_cast<std::size_t>(s)];
    if (st.queue == 0 && st.service == 0) continue;
    auto& acc = g.stages[static_cast<std::size_t>(s)];
    acc.queue += st.queue;
    acc.service += st.service;
    g.stage_hist[static_cast<std::size_t>(s)].add(st.total());
  }
}

void AttrAccountant::publish(MetricsRegistry& reg, const std::string& prefix) const {
  reg.counter(prefix + "records", records_);
  reg.counter(prefix + "conservation_violations", violations_);
  for (int o = 0; o < kNumAttrOps; ++o) {
    for (int c = 0; c < kNumAttrOutcomes; ++c) {
      const auto op = static_cast<AttrOp>(o);
      const auto outcome = static_cast<AttrOutcome>(c);
      const AttrGroup& g = group(op, outcome);
      if (g.count == 0) continue;
      const std::string base =
          prefix + toString(op) + "." + toString(outcome) + ".";
      reg.counter(base + "count", g.count);
      reg.counter(base + "end_to_end_ticks", g.end_to_end_ticks);
      reg.histogram(base + "latency_pcycles", g.latency_hist);
      for (int s = 0; s < kNumAttrStages; ++s) {
        const StageTicks& st = g.stages[static_cast<std::size_t>(s)];
        if (st.queue == 0 && st.service == 0 &&
            g.stage_hist[static_cast<std::size_t>(s)].count() == 0) {
          continue;
        }
        const std::string stage =
            base + toString(static_cast<AttrStage>(s)) + ".";
        reg.counter(stage + "queue_ticks", st.queue);
        reg.counter(stage + "service_ticks", st.service);
        reg.histogram(stage + "ticks_pcycles",
                      g.stage_hist[static_cast<std::size_t>(s)]);
      }
    }
  }
}

}  // namespace nwc::obs
