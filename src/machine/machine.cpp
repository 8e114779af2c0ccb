#include "machine/machine.hpp"

#include <bit>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "machine/backends/io_backend.hpp"
#include "obs/profiler.hpp"
#include "obs/timeline.hpp"

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

Machine::Machine(const MachineConfig& cfg)
    : cfg_(cfg),
      eng_(std::make_unique<sim::Engine>()),
      metrics_(std::make_unique<Metrics>(cfg.num_nodes)),
      rng_(cfg.seed) {
  if (cfg_.num_nodes < 1 || cfg_.num_nodes > 64) {
    throw std::invalid_argument(
        "MachineConfig.num_nodes must be in [1, 64]: the directory tracks "
        "sharers, and each page entry tracks the nodes caching it, in a "
        "64-bit node bitmask");
  }
  if (cfg_.num_io_nodes < 1 || cfg_.num_io_nodes > cfg_.num_nodes) {
    throw std::invalid_argument(
        "MachineConfig.num_io_nodes (io_nodes) must be in [1, num_nodes]");
  }
  if (cfg_.tlb_entries < 1) {
    throw std::invalid_argument("MachineConfig.tlb_entries must be >= 1");
  }
  if (cfg_.write_buffer_entries < 1) {
    throw std::invalid_argument("MachineConfig.write_buffer_entries must be >= 1");
  }
  if (cfg_.pages_per_group < 1) {
    throw std::invalid_argument(
        "MachineConfig.pages_per_group must be >= 1: pages stripe over the "
        "disks in groups of this many");
  }
  if (!(cfg_.pcycle_ns > 0.0)) {
    throw std::invalid_argument("MachineConfig.pcycle_ns must be > 0");
  }
  for (const auto& [key, bps] :
       {std::pair{"memory_bus_bps", cfg_.memory_bus_bps},
        std::pair{"io_bus_bps", cfg_.io_bus_bps},
        std::pair{"net_link_bps", cfg_.net_link_bps},
        std::pair{"ring_bps", cfg_.ring_bps}, std::pair{"disk_bps", cfg_.disk_bps},
        std::pair{"log_disk_bps", cfg_.log_disk_bps}}) {
    if (!(bps > 0.0)) {
      throw std::invalid_argument(std::string("MachineConfig.") + key +
                                  " must be > 0: a zero rate makes every transfer free");
    }
  }
  if (cfg_.min_seek_ms > cfg_.max_seek_ms) {
    throw std::invalid_argument("MachineConfig.min_seek_ms must be <= max_seek_ms");
  }
  if (cfg_.ring_receivers < 1) {
    throw std::invalid_argument("MachineConfig.ring_receivers must be >= 1");
  }
  for (const auto& [key, cache] :
       {std::pair{"l1_bytes", cfg_.l1}, std::pair{"l2_bytes", cfg_.l2}}) {
    const std::uint64_t set_bytes = std::uint64_t{cache.line_bytes} * cache.assoc;
    if (set_bytes == 0 || cache.size_bytes == 0 || cache.size_bytes % set_bytes != 0) {
      throw std::invalid_argument(std::string("MachineConfig.") + key +
                                  " must be a positive multiple of line_bytes x assoc (" +
                                  std::to_string(set_bytes) +
                                  " bytes): a cache holds whole sets");
    }
  }
  if (cfg_.page_bytes == 0 || cfg_.page_bytes % cfg_.l1.line_bytes != 0 ||
      cfg_.page_bytes % cfg_.l2.line_bytes != 0) {
    throw std::invalid_argument(
        "MachineConfig.page_bytes must be a positive multiple of the L1 and "
        "L2 line sizes: eviction invalidates a page line by line");
  }
  if (cfg_.min_free_frames < 1) {
    throw std::invalid_argument(
        "MachineConfig.min_free_frames must be >= 1: with no free-frame "
        "reserve the replacement daemon never swaps a page out");
  }
  if (cfg_.framesPerNode() < 1) {
    throw std::invalid_argument(
        "MachineConfig.memory_per_node must hold at least one page frame");
  }
  if (cfg_.diskCacheSlots() < 1) {
    throw std::invalid_argument(
        "MachineConfig.disk_cache_bytes must hold at least one page");
  }
  if (cfg_.hasRing()) {
    if (cfg_.ring_channels < 1) {
      throw std::invalid_argument("MachineConfig.ring_channels must be >= 1 on nwcache");
    }
    if (cfg_.ring_channel_bytes < cfg_.page_bytes) {
      throw std::invalid_argument(
          "MachineConfig.ring_channel_bytes must hold at least one page on nwcache");
    }
  }
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

void Machine::recordAttr(obs::AttrOp op, obs::AttrOutcome outcome,
                         sim::Tick end_to_end, const obs::AttrCtx& actx,
                         sim::PageId page, sim::NodeId node) {
  metrics_->attr.record(op, outcome, end_to_end, actx);
  if (attr_records_ != nullptr) {
    attr_records_->push_back(obs::AttrRecord{op, outcome, end_to_end, eng_->now(),
                                             page, node, actx.stages()});
  }
}

void Machine::sampleTimeline() {
  const bool want_vm = etl_ != nullptr && etl_->enabled(obs::Layer::kVm);
  const bool want_disk = etl_ != nullptr && etl_->enabled(obs::Layer::kDisk);
  const bool want_ring = etl_ != nullptr && etl_->enabled(obs::Layer::kRing);
  if (!timeline_ && !want_vm && !want_disk && !want_ring) return;
  const sim::Tick now = eng_->now();
  double free = 0, in_flight = 0;
  for (const auto& n : nodes_) {
    free += n->frames.freeFrames();
    in_flight += n->swaps_in_flight;
  }
  double dirty = 0;
  for (const auto& d : disks_) dirty += d->cache.dirtyCount();
  const double staged = backend_->stagedPages();
  if (timeline_) {
    timeline_->free_frames.sample(now, free);
    timeline_->swaps_in_flight.sample(now, in_flight);
    timeline_->dirty_slots.sample(now, dirty);
    timeline_->ring_occupancy.sample(now, staged);
  }
  if (want_vm) {
    etl_->counterSample(obs::Layer::kVm, "vm.free_frames", now, free);
    etl_->counterSample(obs::Layer::kVm, "vm.swaps_in_flight", now, in_flight);
  }
  if (want_disk) {
    etl_->counterSample(obs::Layer::kDisk, "disk.dirty_slots", now, dirty);
  }
  if (want_ring && backend_->ring() != nullptr) {
    etl_->counterSample(obs::Layer::kRing, "ring.occupancy", now, staged);
  }
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

  for (std::int64_t p = 0; p < pt_->numPages(); ++p) {
    const vm::PageEntry& e = pt_->entry(p);
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
