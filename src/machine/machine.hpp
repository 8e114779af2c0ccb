// The simulated multiprocessor: nodes (TLB, caches, write buffer, local
// memory), wormhole mesh, disks with controller caches, the machine-wide
// virtual memory system, and a pluggable I/O backend implementing the
// system variant under test (plain disk, NWCache ring, DCD log disk — see
// machine/backends/).
//
// Applications drive it through `access()` (one awaitable per memory
// reference — resident cache hits are a synchronous fast path), `compute()`
// (local cycle accounting) and `fence()` (yield accumulated local time
// before synchronization).
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "io/disk.hpp"
#include "io/disk_cache.hpp"
#include "io/pfs.hpp"
#include "machine/config.hpp"
#include "machine/metrics.hpp"
#include "machine/trace.hpp"
#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "mem/tlb.hpp"
#include "mem/write_buffer.hpp"
#include "net/mesh.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/trigger.hpp"
#include "vm/frame_pool.hpp"
#include "vm/page_table.hpp"

namespace nwc::obs {
class EventTimeline;
class MetricsRegistry;
class Sampler;
struct SampleFrame;
}

namespace nwc::io {
class LogDisk;
}

namespace nwc::ring {
class NwcFifos;
class OpticalRing;
}

namespace nwc::machine {

class IoBackend;

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  sim::Engine& engine() { return *eng_; }
  const MachineConfig& config() const { return cfg_; }
  Metrics& metrics() { return *metrics_; }
  const Metrics& metrics() const { return *metrics_; }

  // --- address space ------------------------------------------------------
  /// Reserves a page-aligned region of `bytes` in the simulated virtual
  /// address space (an mmap'd file in the paper's model). Pages start on
  /// disk. Must be called before `start()`.
  std::uint64_t allocRegion(std::uint64_t bytes, std::string name = {});

  /// Spawns the OS daemons (replacement, disk drains, backend daemons).
  /// Idempotent; called automatically by the app runner.
  void start();

  std::int64_t numPages() const { return pt_ ? pt_->numPages() : 0; }
  vm::PageTable& pageTable() { return *pt_; }
  io::ParallelFileSystem& pfs() { return *pfs_; }
  net::MeshNetwork& mesh() { return *mesh_; }
  mem::Directory& directory() { return *dir_; }
  vm::FramePool& framePool(sim::NodeId n) { return nodes_[static_cast<std::size_t>(n)]->frames; }
  mem::Tlb& tlb(sim::NodeId n) { return nodes_[static_cast<std::size_t>(n)]->tlb; }
  const mem::SetAssocCache& l1(sim::NodeId n) const {
    return nodes_[static_cast<std::size_t>(n)]->l1;
  }
  const mem::SetAssocCache& l2(sim::NodeId n) const {
    return nodes_[static_cast<std::size_t>(n)]->l2;
  }
  io::DiskCache& diskCache(int disk) { return disks_[static_cast<std::size_t>(disk)]->cache; }
  io::DiskModel& disk(int d) { return disks_[static_cast<std::size_t>(d)]->disk; }
  /// The I/O backend implementing the configured system variant.
  IoBackend& backend() { return *backend_; }
  /// The optical ring (NWCache backend only; nullptr otherwise).
  ring::OpticalRing* ring();
  /// NWCache interface FIFOs of disk `d` (white-box tests; ring mode only).
  ring::NwcFifos& nwcFifos(int d);
  /// Log disk of disk `d` (DCD baseline only; nullptr otherwise).
  io::LogDisk* logDisk(int d);
  /// Wakes the I/O daemons of disk `d` (after external state injection).
  void kickDisk(int d) { disks_[static_cast<std::size_t>(d)]->work.notifyAll(); }

  // --- application interface ------------------------------------------------
  /// Accumulates `cycles` of local computation on `cpu` (flushed lazily).
  void compute(int cpu, sim::Tick cycles) {
    nodes_[static_cast<std::size_t>(cpu)]->pending += cycles;
  }

  /// Yields the cpu's accumulated local time to the global clock. Must be
  /// awaited before any inter-processor synchronization.
  sim::Engine::DelayAwaiter fence(int cpu);

  /// One memory reference. Fast path (resident + cache hit + quantum not
  /// exceeded) completes synchronously; everything else parks the caller
  /// and transfers to the CPU's persistent access coroutine, which hands
  /// control back when the reference completes. A CPU has at most one
  /// reference outstanding: a second concurrent access() on the same CPU
  /// throws std::logic_error. An exception in the slow path is rethrown to
  /// the awaiting coroutine.
  struct AccessAwaiter {
    Machine& m;
    int cpu;
    std::uint64_t vaddr;
    bool write;
    bool slow = false;

    bool await_ready() { return m.tryFastAccess(cpu, vaddr, write); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      slow = true;
      NodeCtx& nc = *m.nodes_[static_cast<std::size_t>(cpu)];
      nc.access = AccessRequest{vaddr, write, h};
      return nc.access_loop.handle();
    }
    void await_resume() const {
      if (slow) m.rethrowAccessError(cpu);
    }
  };

  AccessAwaiter access(int cpu, std::uint64_t vaddr, bool write) {
    ++metrics_->cpu(cpu).accesses;
    if (ref_recorder_) ref_recorder_->onAccess(cpu, vaddr, write);
    return AccessAwaiter{*this, cpu, vaddr, write};
  }

  /// One block-grain storage request issued from node `cpu` (the workload
  /// front end's entry point into the swap/fault/destage datapath). Faults
  /// the page in through the configured IoBackend exactly like a memory
  /// reference would — same attribution, sampler and health coverage — but
  /// skips the processor-side TLB/L1/L2/write-buffer model: storage traffic
  /// is served at page grain, not via processor loads. (block_io.cpp)
  sim::Task<> blockAccess(int cpu, std::uint64_t vaddr, bool write);

  /// Marks `cpu` finished (records its finish time).
  void cpuDone(int cpu);

  /// Host clock (obs::prof::nowNs) at the instant the last CPU called
  /// cpuDone, or 0 when profiling was disabled / CPUs still running. The
  /// runner uses it to attribute the event loop's post-workload tail to a
  /// "destage-drain" profile phase.
  std::uint64_t hostDrainStartNs() const { return host_drain_start_ns_; }

  /// Attaches the benchmark's page-event record (machine/trace.hpp; optional).
  void attachTrace(TraceBuffer* sink) { trace_ = sink; }

  /// Attaches a kernel reference-stream recorder (optional; null to
  /// detach). Must be attached before `allocRegion` to see every region.
  void attachRefRecorder(RefRecorder* rec) { ref_recorder_ = rec; }
  RefRecorder* refRecorder() const { return ref_recorder_; }

  /// Attaches a cross-layer event timeline (optional; null to detach).
  /// Each hot-path hook costs one pointer check while detached.
  void attachEventTimeline(obs::EventTimeline* tl);
  obs::EventTimeline* eventTimeline() const { return etl_; }

  /// Attaches the periodic sampler (optional; null to detach). Must be
  /// attached before `start()`: the sampling daemon is spawned there, so a
  /// machine without one never schedules a single extra event.
  void attachSampler(obs::Sampler* s) { sampler_ = s; }
  obs::Sampler* sampler() const { return sampler_; }

  /// Fills one frame of the sampler's track catalog from live machine state
  /// (observe.cpp, next to the end-of-run catalog it subsets). The only
  /// occupancy snapshot: time series of machine state come from the sampler.
  void collectSample(obs::SampleFrame& f) const;

  /// Publishes every component's end-of-run statistics into `reg`
  /// (observe.cpp has the shared-fabric catalog; the backend appends its
  /// own instruments).
  void publishMetrics(obs::MetricsRegistry& reg) const;

  // --- invariants (debug validators / property tests) -----------------------
  /// Checks the single-copy invariant and frame accounting; returns a
  /// human-readable violation description, empty when consistent.
  std::string checkInvariants() const;

  // --- shared fabric contexts (used by the I/O backends) ---------------------
  /// The reference a CPU's access coroutine is serving; `caller` is null
  /// while none is outstanding.
  struct AccessRequest {
    std::uint64_t vaddr = 0;
    bool write = false;
    std::coroutine_handle<> caller{};
  };

  struct NodeCtx {
    NodeCtx(sim::Engine& eng, const MachineConfig& cfg, vm::FramePool&& fp);

    mem::Tlb tlb;
    mem::SetAssocCache l1;
    mem::SetAssocCache l2;
    mem::WriteBuffer wb;
    sim::FifoServer mem_bus;
    sim::FifoServer io_bus;
    vm::FramePool frames;
    sim::Signal frame_freed;   // a frame became free
    sim::Signal replace_kick;  // replacement daemon wake-up
    sim::Tick pending = 0;     // local cycles not yet on the global clock
    sim::Tick tlb_penalty = 0; // shootdown/interrupt cycles to charge
    int swaps_in_flight = 0;   // dirty write-outs whose frame is not yet free
    AccessRequest access;            // slow-path request slot (access.cpp)
    std::exception_ptr access_error; // thrown by the slow path, not yet rethrown
    sim::Task<> access_loop;         // this CPU's persistent access coroutine
  };

  struct NackWaiter {
    sim::NodeId node;
    sim::Trigger* ok;
  };

  struct DiskCtx {
    DiskCtx(sim::Engine& eng, const MachineConfig& cfg, sim::NodeId node, sim::Rng rng);

    sim::NodeId node;  // hosting I/O node
    io::DiskModel disk;
    io::DiskCache cache;
    std::deque<NackWaiter> nack_fifo;
    sim::Signal work;  // dirty slots / records to process
  };

 private:
  friend struct AccessAwaiter;
  friend class IoBackend;

  // -- fast path helpers ----------------------------------------------------
  bool tryFastAccess(int cpu, std::uint64_t vaddr, bool write);
  /// Serves `nodes_[cpu]->access` forever: the slow path of every reference
  /// this CPU makes, without a coroutine frame per reference.
  sim::Task<> accessLoop(int cpu);
  void rethrowAccessError(int cpu) {
    NodeCtx& nc = *nodes_[static_cast<std::size_t>(cpu)];
    if (nc.access_error) std::rethrow_exception(std::exchange(nc.access_error, nullptr));
  }
  /// TLB, frame-LRU and page-entry bookkeeping of a resident reference
  /// (defined in access.cpp, the only caller).
  inline void commitResidentTouch(int cpu, sim::PageId page, vm::PageEntry& e, bool write);
  /// Installs `page` in `cpu`'s TLB and keeps the TLB-residency masks
  /// (vm::PageEntry::tlb_on) of it and of the entry it evicts exact.
  void tlbInsert(int cpu, sim::PageId page, vm::PageEntry& e) {
    const std::uint64_t bit = std::uint64_t{1} << cpu;
    const sim::PageId victim = nodes_[static_cast<std::size_t>(cpu)]->tlb.insert(page);
    if (victim != sim::kNoPage) pt_->entry(victim).tlb_on &= ~bit;
    e.tlb_on |= bit;
  }

  // -- fault path (fault.cpp) -------------------------------------------------
  sim::Task<> pageFault(int cpu, sim::PageId page, bool write);
  sim::Task<> ensureFreeFrame(int cpu, sim::NodeId n);

  // -- replacement & swap-out (swap.cpp) --------------------------------------
  sim::Task<> replacementDaemon(sim::NodeId n);
  sim::Task<> swapOutPage(sim::NodeId n, sim::PageId page);
  void shootdown(sim::PageId page, sim::NodeId initiator);
  void dropPageFromCachesAndDirectory(sim::PageId page);

  // -- I/O node daemons (io_drive.cpp) ----------------------------------------
  sim::Task<> diskDrainLoop(int disk_idx);
  void sendPendingOks(int disk_idx);
  sim::Task<> deliverOk(int disk_idx, NackWaiter w);

  int diskIndexOf(sim::PageId page) const { return pfs_->diskOf(page); }

  // -- timing helpers ----------------------------------------------------------
  sim::Tick pageSerTicks(double bps) const;
  sim::Tick ctrlTransfer(sim::Tick now, sim::NodeId src, sim::NodeId dst,
                         obs::AttrCtx* actx = nullptr);

  // -- attribution helpers (see obs/attribution.hpp) --------------------------
  /// `srv.request()` that also charges the queue/service split to `actx`.
  static sim::Tick attrRequest(obs::AttrCtx& actx, obs::AttrStage stage,
                               sim::FifoServer& srv, sim::Tick now,
                               sim::Tick service) {
    const sim::Tick done = srv.request(now, service);
    actx.add(stage, done - service - now, service);
    return done;
  }

  /// `mesh_->transfer()` that charges per-link queueing as kMesh queue time
  /// and the remainder (hops + serialization) as kMesh service time.
  sim::Tick attrMeshTransfer(obs::AttrCtx& actx, sim::Tick now, sim::NodeId src,
                             sim::NodeId dst, std::uint64_t bytes,
                             net::TrafficClass cls) {
    sim::Tick queued = 0;
    const sim::Tick done = mesh_->transfer(now, src, dst, bytes, cls, &queued);
    actx.add(obs::AttrStage::kMesh, queued, done - now - queued);
    return done;
  }

  /// Destage bookkeeping (io_drive.cpp): batch-size/stall metrics plus the
  /// kDestage attribution record. Shared with the backends' own destage
  /// daemons through an IoBackend forwarder.
  void recordDestage(const obs::AttrCtx& actx, sim::Tick end_to_end,
                     std::size_t batch_pages);

  // -- periodic sampler (observe.cpp) -----------------------------------------
  /// Snapshots the sampler's tracks every `sampler_->interval()` ticks; takes
  /// one final sample after the last CPU finishes, then exits so the engine
  /// calendar can drain.
  sim::Task<> samplerDaemon();

  MachineConfig cfg_;
  std::unique_ptr<sim::Engine> eng_;
  std::unique_ptr<Metrics> metrics_;
  std::vector<std::unique_ptr<NodeCtx>> nodes_;
  std::unique_ptr<net::MeshNetwork> mesh_;
  std::unique_ptr<mem::Directory> dir_;
  std::unique_ptr<vm::PageTable> pt_;
  std::unique_ptr<io::ParallelFileSystem> pfs_;
  std::vector<std::unique_ptr<DiskCtx>> disks_;
  std::unique_ptr<IoBackend> backend_;
  TraceBuffer* trace_ = nullptr;
  RefRecorder* ref_recorder_ = nullptr;
  obs::EventTimeline* etl_ = nullptr;
  obs::Sampler* sampler_ = nullptr;
  int cpus_done_ = 0;  // lets the sampler daemon stop with the workload
  std::uint64_t host_drain_start_ns_ = 0;  // see hostDrainStartNs()
  sim::Rng rng_;
  std::uint64_t next_vaddr_ = 0;
  bool started_ = false;

  // Pre-computed serialization times.
  sim::Tick page_ser_membus_ = 0;
  sim::Tick page_ser_iobus_ = 0;
  sim::Tick line_ser_membus_ = 0;

  // Power-of-two page/line geometry takes the shift path (hardware divides
  // are measurable on the access fast path); -1 falls back to division.
  int page_shift_ = -1;
  int line_shift_ = -1;

  sim::PageId pageOf(std::uint64_t vaddr) const {
    return static_cast<sim::PageId>(page_shift_ >= 0 ? vaddr >> page_shift_
                                                     : vaddr / cfg_.page_bytes);
  }
  std::uint64_t lineNumOf(std::uint64_t vaddr) const {
    return line_shift_ >= 0 ? vaddr >> line_shift_ : vaddr / cfg_.l2.line_bytes;
  }
};

}  // namespace nwc::machine
