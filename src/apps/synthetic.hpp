// Block-serving workload sources: synthetic (generated in memory from a
// "synth:..." spec) and recorded ("trace:PATH"). Both replay a BlockTrace
// through Machine::blockAccess with open-loop arrivals — a live synthetic
// run and a replay of the same generated trace are byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/block_trace.hpp"
#include "apps/workload.hpp"

namespace nwc::apps {

class BlockServeWorkload final : public WorkloadSource {
 public:
  /// Serves a trace already in memory; `name` is the spec string recorded
  /// in RunSummary.app.
  BlockServeWorkload(std::string name, BlockTrace trace);

  std::string name() const override { return name_; }
  void setup(AppContext& ctx) override;
  sim::Task<> drive(AppContext& ctx, int cpu) override;
  bool verify() const override;
  std::uint64_t dataBytes() const override { return data_bytes_; }

  const BlockTrace& trace() const { return trace_; }

 private:
  std::string name_;
  BlockTrace trace_;
  std::uint64_t base_ = 0;
  std::uint64_t page_bytes_ = 0;
  std::uint64_t data_bytes_ = 0;
  std::uint64_t total_ops_ = 0;
  // Host-side issue counter for verify(); never feeds back into simulated
  // time.
  std::uint64_t issued_ = 0;
};

}  // namespace nwc::apps
