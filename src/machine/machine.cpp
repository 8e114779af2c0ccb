#include "machine/machine.hpp"

#include <bit>
#include <cassert>
#include <sstream>

#include "machine/backends/io_backend.hpp"
#include "obs/profiler.hpp"

namespace nwc::machine {

Machine::NodeCtx::NodeCtx(sim::Engine& eng, const MachineConfig& cfg,
                          vm::FramePool&& fp)
    : tlb(cfg.tlb_entries),
      l1(cfg.l1),
      l2(cfg.l2),
      wb(cfg.write_buffer_entries),
      mem_bus("mem_bus"),
      io_bus("io_bus"),
      frames(std::move(fp)),
      frame_freed(eng),
      replace_kick(eng) {}

Machine::DiskCtx::DiskCtx(sim::Engine& eng, const MachineConfig& cfg, sim::NodeId node,
                          sim::Rng rng)
    : node(node),
      disk(
          [&] {
            io::DiskParams p;
            p.min_seek_ms = cfg.min_seek_ms;
            p.max_seek_ms = cfg.max_seek_ms;
            p.rot_ms = cfg.rot_ms;
            p.bytes_per_sec = cfg.disk_bps;
            p.pcycle_ns = cfg.pcycle_ns;
            p.page_bytes = cfg.page_bytes;
            p.pages_per_cylinder = cfg.pages_per_cylinder;
            p.cylinders = cfg.disk_cylinders;
            return p;
          }(),
          rng),
      cache(cfg.diskCacheSlots()),
      work(eng) {}

// validate() throws before anything is sized from the config.
Machine::Machine(const MachineConfig& cfg)
    : cfg_((cfg.validate(), cfg)),
      eng_(std::make_unique<sim::Engine>()),
      metrics_(std::make_unique<Metrics>(cfg.num_nodes)),
      rng_(cfg.seed) {
  for (int n = 0; n < cfg_.num_nodes; ++n) {
    nodes_.push_back(std::make_unique<NodeCtx>(
        *eng_, cfg_, vm::FramePool(cfg_.framesPerNode(), cfg_.min_free_frames)));
    nodes_.back()->access_loop = accessLoop(n);
  }

  net::MeshParams mp;
  mp.num_nodes = cfg_.num_nodes;
  mp.link_bytes_per_sec = cfg_.net_link_bps;
  mp.pcycle_ns = cfg_.pcycle_ns;
  mp.hop_latency = cfg_.hop_latency;
  mesh_ = std::make_unique<net::MeshNetwork>(mp);

  dir_ = std::make_unique<mem::Directory>(cfg_.num_nodes);
  pt_ = std::make_unique<vm::PageTable>(*eng_, 0);

  pfs_ = std::make_unique<io::ParallelFileSystem>(cfg_.ioNodes(), cfg_.pages_per_group);
  int d = 0;
  for (sim::NodeId io_node : cfg_.ioNodes()) {
    disks_.push_back(
        std::make_unique<DiskCtx>(*eng_, cfg_, io_node, rng_.fork(0x10 + static_cast<std::uint64_t>(d))));
    ++d;
  }

  if (std::has_single_bit(cfg_.page_bytes)) {
    page_shift_ = std::countr_zero(cfg_.page_bytes);
  }
  if (std::has_single_bit(static_cast<std::uint64_t>(cfg_.l2.line_bytes))) {
    line_shift_ = std::countr_zero(static_cast<std::uint64_t>(cfg_.l2.line_bytes));
  }

  page_ser_membus_ = sim::transferTicks(cfg_.page_bytes, cfg_.memory_bus_bps, cfg_.pcycle_ns);
  page_ser_iobus_ = sim::transferTicks(cfg_.page_bytes, cfg_.io_bus_bps, cfg_.pcycle_ns);
  line_ser_membus_ =
      sim::transferTicks(cfg_.l2.line_bytes, cfg_.memory_bus_bps, cfg_.pcycle_ns);

  // Everything the system variant varies lives behind this one seam.
  backend_ = makeIoBackend(*this);
}

Machine::~Machine() {
  // Destroy the access coroutines, then the engine (and every coroutine
  // frame it owns), while the machine's signals/mutexes those frames
  // reference — and the backend the frames run in — are still alive. An
  // access coroutine parked mid-fault may release a mutex on the way out,
  // which schedules on the engine.
  for (auto& node : nodes_) node->access_loop = {};
  eng_.reset();
}

std::uint64_t Machine::allocRegion(std::uint64_t bytes, std::string name) {
  assert(!started_ && "allocRegion must precede start()");
  const std::uint64_t base = next_vaddr_;
  if (ref_recorder_) ref_recorder_->onRegion(base, bytes, name);
  const std::uint64_t pages = (bytes + cfg_.page_bytes - 1) / cfg_.page_bytes;
  pt_->addPages(*eng_, static_cast<std::int64_t>(pages));
  next_vaddr_ += pages * cfg_.page_bytes;
  return base;
}

void Machine::start() {
  if (started_) return;
  started_ = true;
  for (int n = 0; n < cfg_.num_nodes; ++n) eng_->spawn(replacementDaemon(n));
  for (int d = 0; d < static_cast<int>(disks_.size()); ++d) {
    eng_->spawn(diskDrainLoop(d));
    backend_->startDiskDaemons(d);
  }
  if (sampler_ != nullptr) eng_->spawn(samplerDaemon());
}

ring::OpticalRing* Machine::ring() { return backend_->ring(); }

ring::NwcFifos& Machine::nwcFifos(int d) { return *backend_->fifos(d); }

io::LogDisk* Machine::logDisk(int d) { return backend_->logDisk(d); }

sim::Engine::DelayAwaiter Machine::fence(int cpu) {
  NodeCtx& nc = *nodes_[static_cast<std::size_t>(cpu)];
  const sim::Tick amount = nc.pending + nc.tlb_penalty;
  metrics_->cpu(cpu).tlb += nc.tlb_penalty;
  nc.pending = 0;
  nc.tlb_penalty = 0;
  return eng_->delay(amount);
}

void Machine::cpuDone(int cpu) {
  NodeCtx& nc = *nodes_[static_cast<std::size_t>(cpu)];
  metrics_->cpu(cpu).finish = eng_->now() + nc.pending + nc.tlb_penalty;
  metrics_->cpu(cpu).tlb += nc.tlb_penalty;
  nc.pending = 0;
  nc.tlb_penalty = 0;
  ++cpus_done_;
  // Host timestamp of the moment the last CPU finished: everything the
  // event loop does after this is destage/drain tail work, which the
  // profiler reports as its own phase (see runApp/replayApp).
  if (cpus_done_ == cfg_.num_nodes && obs::prof::enabled()) {
    host_drain_start_ns_ = obs::prof::nowNs();
  }
}

sim::Tick Machine::pageSerTicks(double bps) const {
  return sim::transferTicks(cfg_.page_bytes, bps, cfg_.pcycle_ns);
}

sim::Tick Machine::ctrlTransfer(sim::Tick now, sim::NodeId src, sim::NodeId dst,
                                obs::AttrCtx* actx) {
  if (actx == nullptr) {
    return mesh_->transfer(now, src, dst, cfg_.ctrl_msg_bytes,
                           net::TrafficClass::kControl);
  }
  return attrMeshTransfer(*actx, now, src, dst, cfg_.ctrl_msg_bytes,
                          net::TrafficClass::kControl);
}

std::string Machine::checkInvariants() const {
  std::ostringstream bad;

  // Frame accounting: per node, resident count + free <= total, and every
  // resident page's entry points back at the node.
  for (int n = 0; n < cfg_.num_nodes; ++n) {
    const vm::FramePool& fp = nodes_[static_cast<std::size_t>(n)]->frames;
    if (fp.freeFrames() < 0 || fp.freeFrames() > fp.totalFrames()) {
      bad << "node " << n << ": free frames out of range\n";
    }
  }

  // TLB residency: bit n of a page's tlb_on is set exactly when node n's
  // TLB holds the page.
  std::vector<std::uint64_t> tlb_held(static_cast<std::size_t>(pt_->numPages()), 0);
  for (int n = 0; n < cfg_.num_nodes; ++n) {
    nodes_[static_cast<std::size_t>(n)]->tlb.forEach([&](sim::PageId p) {
      tlb_held[static_cast<std::size_t>(p)] |= std::uint64_t{1} << n;
    });
  }

  for (std::int64_t p = 0; p < pt_->numPages(); ++p) {
    const vm::PageEntry& e = pt_->entry(p);
    if (e.tlb_on != tlb_held[static_cast<std::size_t>(p)]) {
      bad << "page " << p << ": tlb_on mask 0x" << std::hex << e.tlb_on
          << " but the TLBs hold it on 0x" << tlb_held[static_cast<std::size_t>(p)]
          << std::dec << "\n";
    }
    const bool resident = e.state == vm::PageState::kResident;
    if (resident && e.home == sim::kNoNode) {
      bad << "page " << p << ": resident without a home node\n";
    }
    if (resident && e.home != sim::kNoNode &&
        !nodes_[static_cast<std::size_t>(e.home)]->frames.isResident(p)) {
      bad << "page " << p << ": entry says node " << e.home
          << " but the frame pool disagrees\n";
    }
  }

  // Backend staging invariants (single-copy on the ring, remote guest
  // lists, ...).
  backend_->checkInvariants(bad);
  return bad.str();
}

}  // namespace nwc::machine
