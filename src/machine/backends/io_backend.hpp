// Pluggable I/O backend: the per-variant swap-out / fault / destage logic
// of the simulated system, extracted from the Machine core.
//
// The Machine owns only the shared fabric — mesh, buses, VM, directory,
// disks with controller caches — and delegates everything the paper varies
// between systems to one IoBackend implementation chosen at construction:
//
//   kStandard -> DiskBackend  (NACK/OK swap-outs to the controller cache)
//   kNWCache  -> RingBackend  (optical ring staging + victim reads)
//   kDCD      -> DcdBackend   (log-disk write absorption + destage)
//
// The interface is deliberately narrow: the swap-out route, the victim-read
// probe (fetch planning + execution), the per-disk drain daemons, and the
// metrics/invariant catalog. docs/ARCHITECTURE.md has the recipe for adding
// a new backend.
#pragma once

#include <memory>
#include <ostream>

#include "machine/machine.hpp"

namespace nwc::machine {

/// Fetch route for one fault, decided under the page-entry mutex.
struct FetchPlan {
  enum class Route {
    kDisk,  // demand read through the disk controller
    kRing,  // victim read off the optical ring
  };
  Route route = Route::kDisk;
};

class IoBackend {
 public:
  explicit IoBackend(Machine& m) : m_(m) {}
  virtual ~IoBackend() = default;
  IoBackend(const IoBackend&) = delete;
  IoBackend& operator=(const IoBackend&) = delete;

  // --- swap-out route -------------------------------------------------------
  /// The variant-specific write-out path for a dirty victim. Runs inside
  /// Machine::swapOutPage, which owns the generic bookkeeping (frame
  /// release, metrics, trace). Must leave the entry in a settled state.
  virtual sim::Task<> swapOut(sim::NodeId n, sim::PageId page,
                              obs::AttrCtx& actx) = 0;

  // --- victim-read probe (fault path) --------------------------------------
  /// True when a fault finding the entry in `s` must stall (charged NoFree)
  /// until the state changes, instead of competing to fetch.
  virtual bool faultMustWait(vm::PageState s) const {
    return s == vm::PageState::kSwapping;
  }

  /// True when a fetch may start from state `s` (checked again under the
  /// entry mutex; a false here re-evaluates the fault loop).
  virtual bool fetchableState(vm::PageState s) const {
    return s == vm::PageState::kDisk;
  }

  /// Classifies the fetch route for a fault on `page`. Called under the
  /// entry mutex, immediately before the entry moves to kTransit; backends
  /// may claim staged state here (the ring backend pulls the page's record
  /// out of its interface FIFOs).
  virtual FetchPlan planFetch(sim::PageId page, const vm::PageEntry& e) {
    (void)page;
    (void)e;
    return FetchPlan{};
  }

  /// Executes the planned fetch; returns true on a controller-cache hit.
  virtual sim::Task<bool> fetch(int cpu, sim::PageId page, const FetchPlan& plan,
                                obs::AttrCtx& actx) = 0;

  // --- disk-service hooks ---------------------------------------------------
  /// Serves `page` from backend staging during a controller read miss, if it
  /// is staged there (the DCD log). On true, `*done` holds the completion
  /// time and the page has been copied into the controller cache.
  virtual bool readFromStage(int disk_idx, sim::PageId page, sim::Tick t,
                             sim::Tick* done, obs::AttrCtx& actx) {
    (void)disk_idx;
    (void)page;
    (void)t;
    (void)done;
    (void)actx;
    return false;
  }

  /// Writes one combined batch of dirty controller-cache slots to stable
  /// storage (platters by default; the DCD appends to its log disk).
  /// Charges `actx` with the arm wait (kDiskQueue) and the destage service
  /// (kDestage) so the caller can record the kDestage attribution op.
  virtual sim::Task<> writeBatch(int disk_idx,
                                 const std::vector<sim::PageId>& batch,
                                 obs::AttrCtx& actx);

  // --- drain daemons --------------------------------------------------------
  /// Spawns the backend's daemons for disk `disk_idx` (ring drain, DCD
  /// destage). Called by Machine::start right after the disk's write-behind
  /// drain, preserving per-disk spawn interleaving.
  virtual void startDiskDaemons(int disk_idx) { (void)disk_idx; }

  // --- metrics / validators -------------------------------------------------
  /// Appends the backend's instruments to the registry (ring occupancy,
  /// interface FIFOs, receiver banks, ...).
  virtual void publishMetrics(obs::MetricsRegistry& reg) const { (void)reg; }

  /// Appends backend-specific invariant violations to `bad`.
  virtual void checkInvariants(std::ostream& bad) const { (void)bad; }

  /// Pages currently staged outside memory and disk (timeline sampling).
  virtual int stagedPages() const { return 0; }

  /// Cumulative receiver retunes across all nodes (periodic sampler's
  /// `ring.receiver.retunes` track; zero on ring-less systems).
  virtual std::uint64_t receiverRetunes() const { return 0; }

  // --- optional component accessors ----------------------------------------
  virtual ring::OpticalRing* ring() { return nullptr; }
  virtual ring::NwcFifos* fifos(int disk_idx) {
    (void)disk_idx;
    return nullptr;
  }
  virtual io::LogDisk* logDisk(int disk_idx) {
    (void)disk_idx;
    return nullptr;
  }

 protected:
  // Narrow, named views into the owning Machine's shared fabric. Backends
  // never touch Machine members directly; everything they may use is
  // enumerated here.
  Machine& m_;

  sim::Engine& eng() { return *m_.eng_; }
  const MachineConfig& cfg() const { return m_.cfg_; }
  Metrics& metrics() { return *m_.metrics_; }
  Machine::NodeCtx& node(sim::NodeId n) {
    return *m_.nodes_[static_cast<std::size_t>(n)];
  }
  const Machine::NodeCtx& node(sim::NodeId n) const {
    return *m_.nodes_[static_cast<std::size_t>(n)];
  }
  Machine::DiskCtx& diskCtx(int d) {
    return *m_.disks_[static_cast<std::size_t>(d)];
  }
  int numDisks() const { return static_cast<int>(m_.disks_.size()); }
  vm::PageTable& pt() { return *m_.pt_; }
  const vm::PageTable& pt() const { return *m_.pt_; }
  io::ParallelFileSystem& pfs() { return *m_.pfs_; }
  obs::EventTimeline* etl() { return m_.etl_; }
  TraceBuffer* traceSink() { return m_.trace_; }
  sim::Rng& rng() { return m_.rng_; }
  sim::Tick pageSerMembus() const { return m_.page_ser_membus_; }
  sim::Tick pageSerIobus() const { return m_.page_ser_iobus_; }
  int diskIndexOf(sim::PageId p) const { return m_.diskIndexOf(p); }
  sim::Tick ctrlTransfer(sim::Tick now, sim::NodeId src, sim::NodeId dst,
                         obs::AttrCtx* actx = nullptr) {
    return m_.ctrlTransfer(now, src, dst, actx);
  }
  sim::Tick meshTransfer(sim::Tick now, sim::NodeId src, sim::NodeId dst,
                         std::uint64_t bytes, net::TrafficClass cls) {
    return m_.mesh_->transfer(now, src, dst, bytes, cls);
  }
  sim::Tick attrMeshTransfer(obs::AttrCtx& actx, sim::Tick now, sim::NodeId src,
                             sim::NodeId dst, std::uint64_t bytes,
                             net::TrafficClass cls) {
    return m_.attrMeshTransfer(actx, now, src, dst, bytes, cls);
  }
  static sim::Tick attrRequest(obs::AttrCtx& actx, obs::AttrStage stage,
                               sim::FifoServer& srv, sim::Tick now,
                               sim::Tick service) {
    return Machine::attrRequest(actx, stage, srv, now, service);
  }
  /// Destage bookkeeping shared by the write-behind and the DCD destage
  /// daemon: batch-size/stall metrics plus the kDestage attribution record.
  void recordDestage(const obs::AttrCtx& actx, sim::Tick end_to_end,
                     std::size_t batch_pages) {
    m_.recordDestage(actx, end_to_end, batch_pages);
  }

  // Shared datapaths every variant may fall back to.
  /// The standard NACK/OK swap-out to the disk controller cache (paper 3.1).
  sim::Task<> swapOutToDisk(sim::NodeId n, sim::PageId page, obs::AttrCtx& actx);
  /// Demand read through the disk controller; true on a cache hit.
  sim::Task<bool> fetchFromDisk(int cpu, sim::PageId page, obs::AttrCtx& actx);
  /// Controller read service (firmware overhead, prefetch policy, cache
  /// probe, backend staging via readFromStage, platter read). Returns the
  /// completion time.
  sim::Tick controllerReadService(int disk_idx, sim::PageId page,
                                  bool* cache_hit, obs::AttrCtx& actx);
};

/// Builds the backend for `m.config().system` — the only place a SystemKind
/// is switched on in the whole datapath.
std::unique_ptr<IoBackend> makeIoBackend(Machine& m);

}  // namespace nwc::machine
