// nwcbench: the measuring program behind perfbench/run.py.
//
//   nwcbench --workload=NAME --seed=N --seconds=S [--trace] [--scale=F]
//
// One process, one simulation thread, closed loop: each repetition builds
// the workload through the library's public entry points (the application
// registry or apps::makeWorkload), runs it with apps::runWorkload, and the
// next repetition starts only after the previous one returned. Without
// --trace, repetitions continue while the next one, as long as the last,
// would end within --seconds (at least kMinReps). run_s and setup_s are each
// the fastest repetition's: on a shared host, contention only adds time, in
// bursts shorter than a run, and repetitions rotate over the CPUs. Each
// repetition's times also go to stderr.
//
// A WorkloadSource decorator (TimedSource) forwards setup()/drive()/verify()
// and timestamps each call, which splits host time at the library's layer
// boundaries without any tracing inside the library:
//
//   construct   makeWorkload / registry factory
//   build       runWorkload entry -> setup()          (Machine construction)
//   setup       setup()                               (regions, data, traces)
//   loop        first drive() -> verify()             (the event loop)
//     drain       last drive() done -> verify()       (destage tail)
//   finalize    verify() -> runWorkload returns       (checks, publish, teardown)
//
//   setup_s = construct + (runWorkload entry -> first drive())
//   run_s   = first drive() -> runWorkload returns
//
// Correctness gate: every repetition must verify, be invariant-clean, and
// reproduce the first repetition's simulated digest (the full metrics
// registry, execution time and engine event count).
//
// --trace replaces the measured loop with kTracedPairs pairs of repetitions,
// the second of each with the host profiler enabled, and one recording
// repetition that captures the workload's reference stream and page
// evictions. The pairs give the spans above (medians over the traced
// repetitions), the tracing overhead and the registry counters. The
// recording is replayed out of line into the cache and directory models to
// time those two layers on the workload's own calls.
//
// Prints one JSON object: {"workload","measured_reps","attempted","failed",
// "errors","host","end_to_end":{name:{value,unit}},"per_layer":{...}}. Exit status 1 when
// any repetition failed, 2 on bad arguments.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sched.h>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_context.hpp"
#include "apps/registry.hpp"
#include "apps/workload.hpp"
#include "machine/config.hpp"
#include "machine/trace.hpp"
#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "util/host.hpp"
#include "util/json.hpp"

namespace {

using namespace nwc;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinReps = 3;    // measured repetitions, at least
constexpr std::size_t kMaxReps = 200;  // tiny self-test scales stop here
constexpr int kTracedPairs = 3;        // untraced/traced repetition pairs (--trace)

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The CPUs this process may run on, in order.
std::vector<int> allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

// Moves the calling thread, the only simulation thread, to `cpu`.
void pinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);  // on failure the thread stays where it is
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  machine::MachineConfig cfg;
  std::string app;  // registry kernel name or workload spec
  double scale = 1.0;
};

// Every workload: NWCache system, optimal prefetch, seed from --seed.
bool makeWorkloadDef(const std::string& name, std::uint64_t seed, double scale,
                     Workload& out) {
  out.cfg.withSystem(machine::SystemKind::kNWCache, machine::Prefetch::kOptimal);
  out.cfg.seed = seed;
  if (name == "paper-sor") {
    // The paper's regime: sor at its input size on the default machine.
    out.app = "sor";
    out.scale = scale;
  } else if (name == "coherence-radix32") {
    // Pure coherence: 32 nodes keep radix in memory; faults are negligible.
    // 64 nodes would take 3-5 s per simulation, too few repetitions a run.
    out.cfg.num_nodes = 32;
    out.cfg.num_io_nodes = 8;
    out.app = "radix";
    out.scale = 0.1 * scale;
  } else if (name == "blockserve-zipf") {
    // Block storage through Machine::blockAccess: zipf 0.9, 70% reads,
    // 2% write bursts of 16 pages (the synth defaults). 6000 ops per client
    // keep one simulation under a second, so a run holds ~30 repetitions.
    out.app = "synth:clients=32;objects=8192;ops=6000;seed=" + std::to_string(seed);
    out.scale = scale;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<apps::WorkloadSource> constructSource(const Workload& w) {
  if (apps::isWorkloadSpec(w.app)) return apps::makeWorkload(w.app, w.scale);
  const apps::AppInfo* info = apps::findApp(w.app);
  if (info == nullptr) throw std::invalid_argument("unknown application " + w.app);
  return std::make_unique<apps::KernelWorkload>(w.app, info->make(w.scale));
}

// --- the timing decorator ----------------------------------------------------

class TimedSource final : public apps::WorkloadSource {
 public:
  explicit TimedSource(apps::WorkloadSource& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }

  void setup(apps::AppContext& ctx) override {
    setup_begin = Clock::now();
    inner_.setup(ctx);
    setup_end = Clock::now();
  }

  sim::Task<> drive(apps::AppContext& ctx, int cpu) override {
    if (!driving_) {
      driving_ = true;
      first_drive = Clock::now();
    }
    return timedDrive(ctx, cpu);
  }

  bool verify() const override {
    verify_at = Clock::now();
    return inner_.verify();
  }

  std::uint64_t dataBytes() const override { return inner_.dataBytes(); }

  Clock::time_point setup_begin, setup_end, first_drive, last_drive_done;
  mutable Clock::time_point verify_at;

 private:
  // Awaiting the inner task is symmetric transfer: no engine events, so the
  // simulation is identical with or without the decorator.
  sim::Task<> timedDrive(apps::AppContext& ctx, int cpu) {
    co_await inner_.drive(ctx, cpu);
    last_drive_done = Clock::now();
  }

  apps::WorkloadSource& inner_;
  bool driving_ = false;
};

// --- one repetition ------------------------------------------------------------

struct Rep {
  double construct_s = 0, build_s = 0, setup_call_s = 0, loop_s = 0, drain_s = 0,
         finalize_s = 0;
  double setup_s = 0, run_s = 0;
  apps::RunSummary summary;
  obs::MetricsRegistry registry;
  std::string digest;
};

std::string digestOf(const apps::RunSummary& s, const obs::MetricsRegistry& reg) {
  return "exec_pcycles=" + std::to_string(s.exec_time) +
         " events=" + std::to_string(s.engine_events) + " " + reg.toJson();
}

// `trace` and `recorder` are optional observers (the recording repetition).
Rep runRep(const Workload& w, machine::TraceBuffer* trace = nullptr,
           machine::RefRecorder* recorder = nullptr) {
  Rep r;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<apps::WorkloadSource> inner = constructSource(w);
  TimedSource src(*inner);
  apps::ObsSinks sinks;
  sinks.registry = &r.registry;
  sinks.trace = trace;
  sinks.ref_recorder = recorder;
  const Clock::time_point t1 = Clock::now();
  r.summary = apps::runWorkload(w.cfg, src, sinks);
  const Clock::time_point t2 = Clock::now();

  r.construct_s = secondsBetween(t0, t1);
  r.build_s = secondsBetween(t1, src.setup_begin);
  r.setup_call_s = secondsBetween(src.setup_begin, src.setup_end);
  r.loop_s = secondsBetween(src.first_drive, src.verify_at);
  r.drain_s = secondsBetween(src.last_drive_done, src.verify_at);
  r.finalize_s = secondsBetween(src.verify_at, t2);
  r.setup_s = secondsBetween(t0, src.first_drive);
  r.run_s = secondsBetween(src.first_drive, t2);
  r.digest = digestOf(r.summary, r.registry);
  return r;
}

// Empty when the repetition passes the correctness gate.
std::string checkRep(const Rep& r, const std::string& reference_digest) {
  if (!r.summary.verified) return "result not verified";
  if (!r.summary.invariant_violations.empty()) {
    return "invariant violations: " + r.summary.invariant_violations;
  }
  if (!reference_digest.empty() && r.digest != reference_digest) {
    return "simulated digest differs from the first repetition";
  }
  return {};
}

// --- cache and directory layers, replayed from the workload's own run -------
//
// A recording repetition captures a window of the workload's merged stream:
// processor references (RefRecorder) and page evictions (the page-event
// trace), each eviction at the position where its event was recorded. The
// window is replayed through per-node L1/L2 caches and a directory exactly
// as the machine's access path and eviction call them, which logs every
// SetAssocCache and Directory call with its arguments. Each log is then
// replayed kBatches times on fresh objects and timed after a warm-up prefix.
// Block-grain requests bypass L1/L2 and the directory, so on block
// workloads only the evictions reach these layers, as in the machine.

constexpr std::uint64_t kWindowOps = 1 << 20;       // merged ops recorded, at most
constexpr std::uint64_t kWindowEvictions = 1 << 15;  // expected evictions in the window, at most
constexpr int kBatches = 5;                          // timed log replays; median reported

// Packed stream and call-log entries: operation in bits 60..63, node in
// bits 48..59, address, line or page base in bits 0..47.
constexpr std::uint64_t kArgMask = (std::uint64_t{1} << 48) - 1;

std::uint64_t pack(unsigned op, int node, std::uint64_t arg) {
  if (arg > kArgMask || node < 0 || node >= (1 << 12)) {
    throw std::runtime_error("recorded address or node out of the packed range");
  }
  return (std::uint64_t{op} << 60) | (static_cast<std::uint64_t>(node) << 48) | arg;
}
unsigned opOf(std::uint64_t e) { return static_cast<unsigned>(e >> 60); }
int nodeOf(std::uint64_t e) { return static_cast<int>((e >> 48) & 0xfff); }
std::uint64_t argOf(std::uint64_t e) { return e & kArgMask; }

enum StreamOp : unsigned { kRead, kWrite, kEvict };
enum CacheOp : unsigned {
  kL1ReadIfHit, kL1Read, kL1Write, kL2Read, kL2Write,
  kL1InvalidateLine, kL2InvalidateLine, kL1InvalidatePage, kL2InvalidatePage,
};
enum DirOp : unsigned { kDirRead, kDirWrite, kDirWriteback, kDirDropPage };

bool isEviction(machine::TraceKind k) {
  return k == machine::TraceKind::kSwapOutDisk || k == machine::TraceKind::kSwapOutRing ||
         k == machine::TraceKind::kCleanEviction;
}

class StreamRecorder final : public machine::RefRecorder {
 public:
  StreamRecorder(const machine::TraceBuffer& trace, std::uint64_t page_bytes,
                 std::uint64_t begin, std::uint64_t length)
      : trace_(trace), page_bytes_(page_bytes), begin_(begin), end_(begin + length) {
    window.reserve(length);
  }

  void onRegion(std::uint64_t, std::uint64_t, const std::string&) override {}
  void onAccess(int cpu, std::uint64_t vaddr, bool write) override {
    catchUp();
    push(pack(write ? kWrite : kRead, cpu, vaddr));
  }
  void onCompute(int, std::uint64_t) override {}
  void onBarrier(int) override {}

  // Appends the evictions recorded after the last reference.
  void finish() { catchUp(); }

  std::vector<std::uint64_t> window;
  std::uint64_t total = 0;  // merged ops seen, in and out of the window

 private:
  void catchUp() {
    const auto& events = trace_.events();
    for (; next_event_ < events.size(); ++next_event_) {
      const machine::TraceEvent& e = events[next_event_];
      if (isEviction(e.kind)) push(pack(kEvict, 0, static_cast<std::uint64_t>(e.page) * page_bytes_));
    }
  }
  void push(std::uint64_t op) {
    if (total >= begin_ && total < end_) window.push_back(op);
    ++total;
  }

  const machine::TraceBuffer& trace_;
  std::uint64_t page_bytes_, begin_, end_;
  std::size_t next_event_ = 0;
};

struct CallLog {
  std::vector<std::uint64_t> calls;
  std::size_t warm = 0;  // calls replayed untimed before the timed part
};

struct Layers {
  CallLog cache, dir;
};

// Replays `window` through the machine's cache/directory call pattern
// (machine/access.cpp, Machine::dropPageFromCachesAndDirectory), logging
// each call. Calls issued by the first `warm_ops` entries form the warm-up.
Layers deriveCalls(const machine::MachineConfig& cfg, const std::vector<std::uint64_t>& window,
                   std::size_t warm_ops) {
  const int nodes = cfg.num_nodes;
  std::vector<mem::SetAssocCache> l1, l2;
  for (int n = 0; n < nodes; ++n) {
    l1.emplace_back(cfg.l1);
    l2.emplace_back(cfg.l2);
  }
  mem::Directory dir(nodes);
  const std::uint64_t line_bytes = cfg.l2.line_bytes;
  const std::uint64_t lines_per_page = cfg.page_bytes / line_bytes;
  Layers out;
  auto& cc = out.cache.calls;
  auto& dc = out.dir.calls;
  for (std::size_t i = 0; i < window.size(); ++i) {
    if (i == warm_ops) {
      out.cache.warm = cc.size();
      out.dir.warm = dc.size();
    }
    const std::uint64_t e = window[i];
    const std::uint64_t a = argOf(e);
    if (opOf(e) == kEvict) {
      for (int n = 0; n < nodes; ++n) {
        cc.push_back(pack(kL1InvalidatePage, n, a));
        l1[n].invalidatePage(a, cfg.page_bytes);
        cc.push_back(pack(kL2InvalidatePage, n, a));
        l2[n].invalidatePage(a, cfg.page_bytes);
      }
      dc.push_back(pack(kDirDropPage, 0, a / line_bytes));
      dir.dropPage(a / line_bytes, lines_per_page);
      continue;
    }
    const int cpu = nodeOf(e);
    const bool write = opOf(e) == kWrite;
    if (!write) {
      cc.push_back(pack(kL1ReadIfHit, cpu, a));
      if (l1[cpu].accessIfHit(a, false)) continue;
    }
    cc.push_back(pack(write ? kL1Write : kL1Read, cpu, a));
    if (l1[cpu].access(a, write).hit) continue;
    cc.push_back(pack(write ? kL2Write : kL2Read, cpu, a));
    const mem::CacheOutcome o2 = l2[cpu].access(a, write);
    if (o2.evicted && o2.evicted_dirty) {
      dc.push_back(pack(kDirWriteback, cpu, o2.evicted_line));
      dir.onWriteback(cpu, o2.evicted_line);
    }
    if (o2.hit) continue;
    const std::uint64_t line = a / line_bytes;
    if (!write) {
      dc.push_back(pack(kDirRead, cpu, line));
      dir.onRead(cpu, line);
      continue;
    }
    dc.push_back(pack(kDirWrite, cpu, line));
    const mem::CoherenceActions act = dir.onWrite(cpu, line);
    for (int n = 0; n < nodes; ++n) {
      if ((act.invalidate_mask & (std::uint64_t{1} << n)) == 0) continue;
      cc.push_back(pack(kL1InvalidateLine, n, l1[cpu].lineOf(a)));
      l1[n].invalidateLine(l1[cpu].lineOf(a));
      cc.push_back(pack(kL2InvalidateLine, n, line));
      l2[n].invalidateLine(line);
    }
  }
  return out;
}

// Receives the replays' results so the timed work is not elided.
volatile std::uint64_t g_sink = 0;

// Median over kBatches of the seconds spent in the log's timed part, each
// batch on objects made fresh by `make` and warmed by the log's prefix.
template <typename Make, typename Apply>
double timeReplay(const CallLog& log, Make&& make, Apply&& apply) {
  std::vector<double> v;
  std::uint64_t sink = 0;
  for (int b = 0; b < kBatches; ++b) {
    auto objects = make();
    for (std::size_t i = 0; i < log.warm; ++i) sink += apply(objects, log.calls[i]);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = log.warm; i < log.calls.size(); ++i) sink += apply(objects, log.calls[i]);
    v.push_back(secondsBetween(t0, Clock::now()));
  }
  g_sink = sink;
  return median(std::move(v));
}

struct LayerCost {
  double cache_s = 0, dir_s = 0;  // host seconds per simulation, estimated
};

// Zero when the run made no cache or directory calls at all.
LayerCost timeLayers(const machine::MachineConfig& cfg, const StreamRecorder& rec) {
  if (rec.window.empty()) return {};
  const std::size_t warm_ops = rec.window.size() / 4;
  const Layers layers = deriveCalls(cfg, rec.window, warm_ops);
  const std::uint64_t page = cfg.page_bytes;
  const std::uint64_t lines_per_page = page / cfg.l2.line_bytes;

  const double cache_s = timeReplay(
      layers.cache,
      [&] {
        std::pair<std::vector<mem::SetAssocCache>, std::vector<mem::SetAssocCache>> c;
        for (int n = 0; n < cfg.num_nodes; ++n) {
          c.first.emplace_back(cfg.l1);
          c.second.emplace_back(cfg.l2);
        }
        return c;
      },
      [&](auto& c, std::uint64_t e) -> std::uint64_t {
        mem::SetAssocCache& l1 = c.first[static_cast<std::size_t>(nodeOf(e))];
        mem::SetAssocCache& l2 = c.second[static_cast<std::size_t>(nodeOf(e))];
        const std::uint64_t a = argOf(e);
        switch (opOf(e)) {
          case kL1ReadIfHit: return l1.accessIfHit(a, false);
          case kL1Read: return l1.access(a, false).hit;
          case kL1Write: return l1.access(a, true).hit;
          case kL2Read: return l2.access(a, false).hit;
          case kL2Write: return l2.access(a, true).hit;
          case kL1InvalidateLine: return l1.invalidateLine(a);
          case kL2InvalidateLine: return l2.invalidateLine(a);
          case kL1InvalidatePage: return static_cast<std::uint64_t>(l1.invalidatePage(a, page));
          default: return static_cast<std::uint64_t>(l2.invalidatePage(a, page));
        }
      });
  const double dir_s = timeReplay(
      layers.dir, [&] { return std::make_unique<mem::Directory>(cfg.num_nodes); },
      [&](auto& d, std::uint64_t e) -> std::uint64_t {
        const auto n = static_cast<sim::NodeId>(nodeOf(e));
        const std::uint64_t a = argOf(e);
        switch (opOf(e)) {
          case kDirRead: return static_cast<std::uint64_t>(d->onRead(n, a).invalidations);
          case kDirWrite: return static_cast<std::uint64_t>(d->onWrite(n, a).invalidations);
          case kDirWriteback: d->onWriteback(n, a); return 0;
          default: return d->dropPage(a, lines_per_page);
        }
      });
  // The timed part covers (window - warm-up) of the run's merged ops.
  const double scale = static_cast<double>(rec.total) /
                       static_cast<double>(rec.window.size() - warm_ops);
  return {cache_s * scale, dir_s * scale};
}

// Where to record: a window of at most kWindowOps merged ops, shortened so
// that it holds about kWindowEvictions evictions at most, centred in the run.
std::pair<std::uint64_t, std::uint64_t> recordingWindow(const machine::Metrics& m) {
  const std::uint64_t evictions = m.swap_outs + m.clean_evictions;
  const std::uint64_t total = m.totalAccesses() - m.block_reads - m.block_writes + evictions;
  std::uint64_t length = std::min(total, kWindowOps);
  if (evictions > kWindowEvictions) {
    length = std::min(length, static_cast<std::uint64_t>(
                                  static_cast<double>(total) * kWindowEvictions / evictions));
  }
  return {(total - length) / 2, length};
}

// --- output --------------------------------------------------------------------

class MetricSet {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) throw std::runtime_error("metric " + name + " is not finite");
    util::JsonObject o;
    o.add("value", value).add("unit", unit);
    obj_.addRaw(name, o.str());
  }
  std::string str() const { return obj_.str(); }

 private:
  util::JsonObject obj_;
};

// Registry instruments reported per layer. Histogram quantiles are spelled
// "<histogram>.p50"/".p99".
struct RegistryMetric {
  const char* name;
  const char* unit;
};
constexpr RegistryMetric kRegistryMetrics[] = {
    {"cpu.accesses", "count"},
    {"cpu.stall.nofree_ticks", "pcycles"},
    {"cpu.stall.fault_ticks", "pcycles"},
    {"cpu.stall.transit_ticks", "pcycles"},
    {"cpu.stall.other_ticks", "pcycles"},
    {"tlb.misses", "count"},
    {"tlb.shootdowns", "count"},
    {"mesh.total_bytes", "B"},
    {"mesh.link_busy_ticks", "pcycles"},
    {"mesh.link_queued_ticks", "pcycles"},
    {"bus.mem.queued_ticks", "pcycles"},
    {"bus.io.queued_ticks", "pcycles"},
    {"fault.count", "count"},
    {"swap.outs", "count"},
    {"swap.clean_evictions", "count"},
    {"swap.nacks", "count"},
    {"fault.latency_pcycles.p50", "pcycles"},
    {"fault.latency_pcycles.p99", "pcycles"},
    {"swap.latency_pcycles.p50", "pcycles"},
    {"swap.latency_pcycles.p99", "pcycles"},
    {"ring.inserts", "count"},
    {"ring.peak_occupancy", "pages"},
    {"ring.receiver.queued_ticks", "pcycles"},
    {"fault.ring_read.rate", "ratio"},
    {"iface.pushes", "count"},
    {"disk.reads", "count"},
    {"disk.writes", "count"},
    {"swap.write_combining.mean", "pages"},
    {"fault.ctrl_cache_hits", "count"},
    {"fault.ctrl_cache_misses", "count"},
    {"destage.stall_ticks", "pcycles"},
};

// Throws std::runtime_error when the registry lacks the instrument.
double registryValue(const obs::MetricsRegistry& reg, const std::string& name) {
  if (reg.has(name)) {
    switch (reg.kindOf(name)) {
      case obs::InstrumentKind::kCounter:
        return static_cast<double>(reg.counterValue(name));
      case obs::InstrumentKind::kGauge:
        return reg.gaugeValue(name);
      case obs::InstrumentKind::kHistogram:
        break;
    }
  }
  const std::size_t dot = name.rfind('.');
  const std::string base = name.substr(0, dot);
  const std::string q = dot == std::string::npos ? "" : name.substr(dot + 1);
  if (reg.has(base) && reg.kindOf(base) == obs::InstrumentKind::kHistogram &&
      (q == "p50" || q == "p99")) {
    const auto& h = reg.histogramValue(base);
    return static_cast<double>(q == "p50" ? h.p50 : h.p99);
  }
  throw std::runtime_error("metric " + name + " missing from the registry");
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  double scale = 1.0;
  bool trace = false;
};

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: nwcbench --workload=NAME --seed=N --seconds=S [--trace] [--scale=F]\n"
               "  workloads: paper-sor, coherence-radix32, blockserve-zipf\n");
  std::exit(code);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* prefix) { return a.substr(std::strlen(prefix)); };
    if (a.rfind("--workload=", 0) == 0) {
      o.workload = val("--workload=");
    } else if (a.rfind("--seed=", 0) == 0) {
      o.seed = std::strtoull(val("--seed=").c_str(), nullptr, 10);
    } else if (a.rfind("--seconds=", 0) == 0) {
      o.seconds = std::atof(val("--seconds=").c_str());
    } else if (a.rfind("--scale=", 0) == 0) {
      o.scale = std::atof(val("--scale=").c_str());
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--help" || a == "-h") {
      usage(0);
    } else {
      std::fprintf(stderr, "nwcbench: unknown argument %s\n", a.c_str());
      usage(2);
    }
  }
  if (o.workload.empty() || !(o.seconds > 0.0) || !(o.scale > 0.0) || o.scale > 1.0) {
    std::fprintf(stderr, "nwcbench: need --workload, --seconds>0, --scale in (0,1]\n");
    usage(2);
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseArgs(argc, argv);
  Workload w;
  if (!makeWorkloadDef(opt.workload, opt.seed, opt.scale, w)) {
    std::fprintf(stderr, "nwcbench: unknown workload %s\n", opt.workload.c_str());
    usage(2);
  }

  try {
    std::vector<std::string> errors;
    std::uint64_t attempted = 0, failed = 0;
    std::string reference;  // the first repetition's digest
    auto gate = [&](const Rep& r, const char* what) {
      ++attempted;
      const std::string err = checkRep(r, reference);
      if (!err.empty()) {
        ++failed;
        errors.push_back(util::JsonObject().add("rep", what).add("error", err).str());
      }
      if (reference.empty()) reference = r.digest;
    };

    std::size_t measured_reps = 0;
    MetricSet e2e, layers;
    if (!opt.trace) {
      std::vector<double> run_s, setup_s, refs_per_s;
      std::uint64_t exec_pcycles = 0;
      double measured = 0.0, last = 0.0;
      // Repetitions rotate over the allowed CPUs. On a shared host another
      // tenant can slow one CPU for tens of seconds; rotating keeps that CPU
      // from setting every repetition of the run.
      const std::vector<int> cpus = allowedCpus();
      while (run_s.size() < kMinReps ||
             (measured + last <= opt.seconds && run_s.size() < kMaxReps)) {
        if (!cpus.empty()) pinTo(cpus[run_s.size() % cpus.size()]);
        const Rep r = runRep(w);
        gate(r, "measured");
        std::fprintf(stderr, "nwcbench: repetition %zu setup_s=%.4f run_s=%.4f\n",
                     run_s.size(), r.setup_s, r.run_s);
        last = r.setup_s + r.run_s;
        measured += last;
        run_s.push_back(r.run_s);
        setup_s.push_back(r.setup_s);
        // Machine::blockAccess counts each block op in cpu.accesses too.
        refs_per_s.push_back(static_cast<double>(r.summary.metrics.totalAccesses()) / r.run_s);
        exec_pcycles = static_cast<std::uint64_t>(r.summary.exec_time);
      }
      measured_reps = run_s.size();
      e2e.add("run_s", *std::min_element(run_s.begin(), run_s.end()), "s");
      e2e.add("setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s");
      e2e.add("refs_per_s", *std::max_element(refs_per_s.begin(), refs_per_s.end()), "1/s");
      e2e.add("peak_rss_mb", static_cast<double>(util::peakRssBytes()) / (1024.0 * 1024.0),
              "MiB");
      e2e.add("sim_mpcycles", static_cast<double>(exec_pcycles) / 1e6, "Mpcycles");
    } else {
      // Untraced/traced pairs run back to back, so host load drifts little
      // within a pair; the overhead is the median of the pairs' ratios. The
      // first untraced repetition sets the reference digest.
      std::vector<Rep> traced;
      std::vector<double> overhead;
      machine::Metrics counts{0};
      for (int i = 0; i < kTracedPairs; ++i) {
        const Rep u = runRep(w);
        gate(u, "untraced pair");
        if (i == 0) counts = u.summary.metrics;
        obs::prof::reset();
        obs::prof::enable();
        traced.push_back(runRep(w));
        obs::prof::disable();
        gate(traced.back(), "traced");
        overhead.push_back(traced.back().run_s / u.run_s);
      }
      const auto spanMedian = [&](double Rep::*span) {
        std::vector<double> v;
        for (const Rep& r : traced) v.push_back(r.*span);
        return median(std::move(v));
      };
      const double construct_s = spanMedian(&Rep::construct_s);
      const double build_s = spanMedian(&Rep::build_s);
      const double setup_call_s = spanMedian(&Rep::setup_call_s);
      const double loop_s = spanMedian(&Rep::loop_s);
      const double finalize_s = spanMedian(&Rep::finalize_s);
      const Rep& t = traced.back();

      // The recording repetition is gated like any other: the observers
      // must leave the simulation unchanged.
      const auto [begin, length] = recordingWindow(counts);
      machine::TraceBuffer page_events;
      StreamRecorder recorder(page_events, w.cfg.page_bytes, begin, length);
      gate(runRep(w, &page_events, &recorder), "recording");
      recorder.finish();
      const LayerCost cost = timeLayers(w.cfg, recorder);

      layers.add("apps.construct_s", construct_s, "s");
      layers.add("machine.build_s", build_s, "s");
      layers.add("apps.setup_s", setup_call_s, "s");
      layers.add("sim.loop_s", loop_s, "s");
      layers.add("sim.drain_s", spanMedian(&Rep::drain_s), "s");
      layers.add("machine.finalize_s", finalize_s, "s");
      layers.add("trace.run_s", spanMedian(&Rep::run_s), "s");
      layers.add("trace.overhead", median(overhead), "ratio");
      layers.add("trace.span_coverage",
                 (construct_s + build_s + setup_call_s + loop_s + finalize_s) /
                     (spanMedian(&Rep::setup_s) + spanMedian(&Rep::run_s)),
                 "ratio");
      layers.add("sim.events", static_cast<double>(t.summary.engine_events), "count");
      layers.add("sim.host_ns_per_event",
                 loop_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, t.summary.engine_events)),
                 "ns");
      layers.add("mem.cache_s", cost.cache_s, "s");
      layers.add("mem.dir_s", cost.dir_s, "s");
      for (const RegistryMetric& rm : kRegistryMetrics) {
        layers.add(rm.name, registryValue(t.registry, rm.name), rm.unit);
      }
    }

    util::JsonObject out;
    out.add("workload", opt.workload)
        .add("measured_reps", static_cast<std::uint64_t>(measured_reps))
        .add("attempted", attempted)
        .add("failed", failed)
        .addRaw("errors", util::jsonArray(errors))
        .addRaw("host", util::hostInfoJson())
        .addRaw("end_to_end", e2e.str())
        .addRaw("per_layer", layers.str());
    std::printf("%s\n", out.str().c_str());
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "nwcbench: %s\n", ex.what());
    return 1;
  }
}
