// The baseline multiprocessor's I/O backend (SystemKind::kStandard): dirty
// victims travel over the mesh into the disk controller cache under the
// NACK/OK protocol, and faults are demand reads through the controller
// (paper 3.1). All of its datapaths are the shared ones in IoBackend.
#pragma once

#include "machine/backends/io_backend.hpp"

namespace nwc::machine {

class DiskBackend : public IoBackend {
 public:
  explicit DiskBackend(Machine& m) : IoBackend(m) {}

  sim::Task<> swapOut(sim::NodeId n, sim::PageId page,
                      obs::AttrCtx& actx) override {
    return swapOutToDisk(n, page, actx);
  }

  sim::Task<bool> fetch(int cpu, sim::PageId page, const FetchPlan& plan,
                        obs::AttrCtx& actx) override {
    (void)plan;  // only Route::kDisk is ever planned here
    return fetchFromDisk(cpu, page, actx);
  }
};

}  // namespace nwc::machine
