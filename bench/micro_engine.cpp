// Google-benchmark microbenchmarks for the simulation substrate: event
// throughput, coroutine primitives, analytical servers, model components
// and workload construction.
#include <benchmark/benchmark.h>

#include <queue>

#include "apps/block_trace.hpp"
#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "mem/tlb.hpp"
#include "net/mesh.hpp"
#include "sim/calendar.hpp"
#include "sim/engine.hpp"
#include "sim/fifo_server.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"
#include "util/rand.hpp"
#include "vm/page_table.hpp"

namespace {

using namespace nwc;

sim::Task<> pingTask(sim::Engine& e, int hops) {
  for (int i = 0; i < hops; ++i) co_await e.delay(1);
}

// A lone coroutine: every delay targets a tick before any pending event,
// so each one is an inline wake-up (no calendar round trip).
void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    e.spawn(pingTask(e, static_cast<int>(state.range(0))));
    e.run();
    benchmark::DoNotOptimize(e.now());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineEventThroughput)->Arg(1000)->Arg(100000);

// Many interleaved coroutines: most delays go through the calendar.
void BM_EngineManyTasks(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    for (int i = 0; i < state.range(0); ++i) e.spawn(pingTask(e, 10));
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 10);
}
BENCHMARK(BM_EngineManyTasks)->Arg(1000);

// Hold model shared by the calendar and its std::priority_queue baseline:
// pop the minimum, reinsert at a random offset — the classic queue
// benchmark, shaped like the engine's steady state. Arguments:
//   range(0)  live entries;
//   range(1)  share of reinserts, in 1/8ths, on the *current* tick (the
//             wheel's same-slot FIFO path);
//   range(2)  1 to send 1 in 256 reinserts 300,000 ticks out, beyond the
//             wheel's window, so the far-event heap is timed too.
// The remaining reinserts land 1..255 ticks out, inside the window.
template <typename Queue>
void holdModel(benchmark::State& state, Queue& q) {
  const int live = static_cast<int>(state.range(0));
  const std::uint64_t same_tick_eighths = static_cast<std::uint64_t>(state.range(1));
  const bool far = state.range(2) != 0;
  constexpr int kOps = 100000;
  for (auto _ : state) {
    sim::Rng rng(11);
    std::uint64_t seq = 0;
    for (int i = 0; i < live; ++i) {
      q.push(static_cast<sim::Tick>(rng.below(256)), seq++);
    }
    for (int i = 0; i < kOps; ++i) {
      const sim::Tick t = q.pop();
      sim::Tick dt = 1 + rng.below(255);
      if (rng.below(8) < same_tick_eighths) dt = 0;
      if (far && rng.below(256) == 0) dt = 300000;
      q.push(t + dt, seq++);
    }
    q.clear();
  }
  state.SetItemsProcessed(state.iterations() * kOps);
}

void BM_CalendarQueueHold(benchmark::State& state) {
  struct Adapter {
    sim::CalendarQueue q;
    void push(sim::Tick t, std::uint64_t seq) { q.push(t, seq, {}); }
    sim::Tick pop() { return q.pop().t; }
    void clear() { q.clear(); }
  } q;
  holdModel(state, q);
}
BENCHMARK(BM_CalendarQueueHold)
    ->Args({4096, 0, 0})
    ->Args({4096, 4, 0})
    ->Args({32, 0, 1})
    ->Args({128, 0, 1});

// The std::priority_queue the calendar replaced, under the identical hold
// model — the baseline the CalendarQueue speedup is measured against.
void BM_PriorityQueueHold(benchmark::State& state) {
  struct Entry {
    sim::Tick t;
    std::uint64_t seq;
  };
  struct Greater {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  struct Adapter {
    std::priority_queue<Entry, std::vector<Entry>, Greater> q;
    void push(sim::Tick t, std::uint64_t seq) { q.push(Entry{t, seq}); }
    sim::Tick pop() {
      const sim::Tick t = q.top().t;
      q.pop();
      return t;
    }
    void clear() { q = {}; }
  } q;
  holdModel(state, q);
}
BENCHMARK(BM_PriorityQueueHold)
    ->Args({4096, 0, 0})
    ->Args({4096, 4, 0})
    ->Args({32, 0, 1})
    ->Args({128, 0, 1});

sim::Task<> mutexLoop(sim::Engine& e, sim::CoMutex& m, int n) {
  for (int i = 0; i < n; ++i) {
    co_await m.lock();
    co_await e.delay(1);
    m.unlock();
  }
}

void BM_CoMutexContention(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    sim::CoMutex m(e);
    for (int t = 0; t < 4; ++t) e.spawn(mutexLoop(e, m, 1000));
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_CoMutexContention);

void BM_FifoServerRequest(benchmark::State& state) {
  sim::FifoServer s;
  sim::Tick now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.request(now, 10));
    now += 5;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoServerRequest);

// A 32-node mesh (8x4) with random (src, dst) pairs: range(0) is the
// message size (16 B control, 64 B cache line, 4096 B page).
void BM_MeshTransfer(benchmark::State& state) {
  net::MeshParams p;
  p.num_nodes = 32;
  net::MeshNetwork m(p);
  const std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0));
  sim::Rng rng(4);
  sim::Tick now = 0;
  for (auto _ : state) {
    const auto src = static_cast<sim::NodeId>(rng.below(32));
    const auto dst = static_cast<sim::NodeId>(rng.below(32));
    benchmark::DoNotOptimize(m.transfer(now, src, dst, bytes, net::TrafficClass::kCoherence));
    now += 10;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeshTransfer)->Arg(16)->Arg(64)->Arg(4096);

void BM_CacheAccess(benchmark::State& state) {
  mem::SetAssocCache c(mem::CacheParams{64 * 1024, 32, 4});
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(rng.below(1 << 22), false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

// The directory at paper-sor's footprint: about 32K tracked lines over 512
// pages of 64 lines (4 KB pages, 64 B lines), pages spread over a wider
// address range, shared by 8 nodes.
constexpr std::uint64_t kDirPages = 512;
constexpr std::uint64_t kLinesPerPage = 64;

std::uint64_t dirFirstLine(std::uint64_t page) { return page * 3 * kLinesPerPage; }

void trackPage(mem::Directory& d, std::uint64_t page) {
  for (std::uint64_t l = 0; l < kLinesPerPage; ++l) {
    d.onRead(static_cast<sim::NodeId>(page % 8), dirFirstLine(page) + l);
  }
}

// Reads in page order over the tracked lines, from a node that already
// shares each one (the steady state of a sweep over resident pages).
void BM_DirectoryOnRead(benchmark::State& state) {
  mem::Directory d(8);
  for (std::uint64_t p = 0; p < kDirPages; ++p) trackPage(d, p);
  std::uint64_t page = 0;
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        d.onRead(static_cast<sim::NodeId>(page % 8), dirFirstLine(page) + line));
    if (++line == kLinesPerPage) {
      line = 0;
      if (++page == kDirPages) page = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryOnRead);

// Evicts every tracked page (timed), then re-tracks them (untimed).
void BM_DirectoryDropPage(benchmark::State& state) {
  mem::Directory d(8);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::uint64_t p = 0; p < kDirPages; ++p) trackPage(d, p);
    state.ResumeTiming();
    for (std::uint64_t p = 0; p < kDirPages; ++p) {
      benchmark::DoNotOptimize(d.dropPage(dirFirstLine(p), kLinesPerPage));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kDirPages));
}
BENCHMARK(BM_DirectoryDropPage);

void BM_TlbLookup(benchmark::State& state) {
  mem::Tlb t(64);
  for (sim::PageId p = 0; p < 64; ++p) t.insert(p);
  sim::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.lookup(static_cast<sim::PageId>(rng.below(80))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookup);

void BM_RngNext(benchmark::State& state) {
  sim::Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNext);

// One Zipf draw at blockserve-zipf's popularity curve (8192 objects, 0.9).
void BM_ZipfianSample(benchmark::State& state) {
  const util::ZipfianSampler z(8192, 0.9);
  util::Xoshiro256ss rng(5);
  for (auto _ : state) benchmark::DoNotOptimize(z.sample(rng.uniform()));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianSample);

// The whole of blockserve-zipf's trace generation (32 clients x 6000 ops):
// nearly all of that workload's setup time.
void BM_GenerateBlockTrace(benchmark::State& state) {
  const auto spec =
      apps::SyntheticSpec::parse("synth:clients=32;objects=8192;ops=6000;seed=1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::generateBlockTrace(spec, 1.0).clients.size());
  }
  state.SetItemsProcessed(state.iterations() * 32 * 6000);
}
BENCHMARK(BM_GenerateBlockTrace)->Unit(benchmark::kMillisecond);

// A page table for an 8192-page machine (blockserve-zipf's object count).
void BM_PageTableBuild(benchmark::State& state) {
  sim::Engine e;
  for (auto _ : state) {
    vm::PageTable pt(e, 8192);
    benchmark::DoNotOptimize(pt.numPages());
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_PageTableBuild);

}  // namespace

BENCHMARK_MAIN();
