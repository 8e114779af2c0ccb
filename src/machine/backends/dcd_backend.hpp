// Disk Caching Disk backend (SystemKind::kDCD, Hu & Yang [7]): a dedicated
// log spindle between the controller cache and the data disk absorbs write
// batches sequentially (no seek); a destage daemon copies log pages back to
// the data disk whenever the data arm is idle. Reads that miss the
// controller cache but hit the log are served from the log spindle.
#pragma once

#include <memory>
#include <vector>

#include "io/log_disk.hpp"
#include "machine/backends/disk_backend.hpp"

namespace nwc::machine {

class DcdBackend : public DiskBackend {
 public:
  explicit DcdBackend(Machine& m);

  bool readFromStage(int disk_idx, sim::PageId page, sim::Tick t,
                     sim::Tick* done, obs::AttrCtx& actx) override;
  sim::Task<> writeBatch(int disk_idx, const std::vector<sim::PageId>& batch,
                         obs::AttrCtx& actx) override;
  void startDiskDaemons(int disk_idx) override;
  io::LogDisk* logDisk(int disk_idx) override {
    return logs_[static_cast<std::size_t>(disk_idx)].get();
  }

 private:
  sim::Task<> destageLoop(int disk_idx);

  io::LogDisk& log(int disk_idx) {
    return *logs_[static_cast<std::size_t>(disk_idx)];
  }

  std::vector<std::unique_ptr<io::LogDisk>> logs_;  // one per disk
};

}  // namespace nwc::machine
