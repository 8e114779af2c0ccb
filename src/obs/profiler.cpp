#include "obs/profiler.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/registry.hpp"
#include "obs/run_meta.hpp"
#include "util/file.hpp"
#include "util/host.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace nwc::obs::prof {

namespace {

std::atomic<bool> g_enabled{false};

struct Acc {
  std::uint64_t ns = 0;
  std::uint64_t count = 0;
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;

  void operator+=(const Acc& o) {
    ns += o.ns;
    count += o.count;
    allocs += o.allocs;
    bytes += o.bytes;
  }
};

struct Frame {
  std::uint64_t t0_ns;
  std::uint64_t alloc0;
  std::uint64_t bytes0;
  std::size_t path_len;  // ts.path length before this frame was appended
};

struct ThreadState;

struct GlobalState {
  std::mutex mu;
  std::vector<ThreadState*> live;
  std::unordered_map<std::string, Acc> dead_acc;
  std::atomic<unsigned> pool_threads{0};
  std::atomic<std::uint64_t> pool_lifetime_ns{0};
  std::atomic<std::uint64_t> pool_busy_ns{0};
  std::atomic<std::uint64_t> pool_tasks{0};
};

// Leaked on purpose: thread exits (merging into this) can happen after
// static destructors would have run.
GlobalState& global() {
  static GlobalState* g = new GlobalState;
  return *g;
}

struct ThreadState {
  std::mutex mu;  // guards acc against snapshot()
  std::vector<Frame> stack;
  std::string path;  // slash-joined names of the active stack
  std::unordered_map<std::string, Acc> acc;

  ThreadState() {
    GlobalState& g = global();
    std::lock_guard<std::mutex> lk(g.mu);
    g.live.push_back(this);
  }

  ~ThreadState() {
    GlobalState& g = global();
    std::lock_guard<std::mutex> lk(g.mu);
    for (auto& [k, v] : acc) g.dead_acc[k] += v;
    std::erase(g.live, this);
  }
};

ThreadState& threadState() {
  thread_local ThreadState ts;
  return ts;
}

void poolObserver(const util::ParallelStats& s) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  GlobalState& g = global();
  unsigned seen = g.pool_threads.load(std::memory_order_relaxed);
  while (s.threads > seen &&
         !g.pool_threads.compare_exchange_weak(seen, s.threads,
                                               std::memory_order_relaxed)) {
  }
  g.pool_lifetime_ns.fetch_add(s.lifetime_ns * s.threads, std::memory_order_relaxed);
  g.pool_busy_ns.fetch_add(s.busy_ns, std::memory_order_relaxed);
  g.pool_tasks.fetch_add(s.tasks, std::memory_order_relaxed);
}

void buildTree(const std::unordered_map<std::string, Acc>& flat, Node& root) {
  for (const auto& [path, a] : flat) {
    Node* cur = &root;
    std::size_t pos = 0;
    while (pos <= path.size()) {
      const std::size_t slash = path.find('/', pos);
      const std::string part =
          path.substr(pos, slash == std::string::npos ? slash : slash - pos);
      cur = &cur->children[part];
      if (slash == std::string::npos) break;
      pos = slash + 1;
    }
    cur->wall_ns += a.ns;
    cur->count += a.count;
    cur->alloc_count += a.allocs;
    cur->alloc_bytes += a.bytes;
  }
  for (const auto& [name, child] : root.children) {
    root.wall_ns += child.wall_ns;
    root.count += child.count;
    root.alloc_count += child.alloc_count;
    root.alloc_bytes += child.alloc_bytes;
  }
}

std::string dottedMetricName(const std::string& slash_path) {
  std::string out;
  out.reserve(slash_path.size());
  for (const char c : slash_path) {
    if (c == '/') {
      out += '.';
    } else if (c == '-') {
      out += '_';
    } else {
      out += c;
    }
  }
  return out;
}

void publishNode(const Node& n, const std::string& slash_path, MetricsRegistry& reg) {
  if (!slash_path.empty()) {
    const std::string base = "profile.phase." + dottedMetricName(slash_path);
    reg.gauge(base + ".wall_ms", static_cast<double>(n.wall_ns) / 1e6);
    reg.counter(base + ".count", n.count);
    reg.counter(base + ".allocs", n.alloc_count);
    reg.counter(base + ".alloc_bytes", n.alloc_bytes);
  }
  for (const auto& [name, child] : n.children) {
    publishNode(child, slash_path.empty() ? name : slash_path + "/" + name, reg);
  }
}

std::string nodeJson(const Node& n, const std::string& name) {
  util::JsonObject o;
  o.add("name", name)
      .add("wall_ms", static_cast<double>(n.wall_ns) / 1e6)
      .add("count", n.count)
      .add("allocs", n.alloc_count)
      .add("alloc_bytes", n.alloc_bytes);
  if (!n.children.empty()) {
    std::vector<std::string> kids;
    kids.reserve(n.children.size());
    for (const auto& [k, child] : n.children) kids.push_back(nodeJson(child, k));
    o.addRaw("children", util::jsonArray(kids));
  }
  return o.str();
}

// --profile= report path for the atexit writer.
std::string& atexitPath() {
  static std::string* p = new std::string;
  return *p;
}

void atexitWriter() {
  const std::string& path = atexitPath();
  if (path.empty()) return;
  try {
    writeReport(path);
    std::fprintf(stderr, "profile written to %s\n", path.c_str());
  } catch (const std::exception& ex) {
    // A failed result file exits 2. exit() may not be called from an
    // atexit handler, so flush what the run printed and end here.
    std::fprintf(stderr, "profile write failed: %s\n", ex.what());
    std::fflush(nullptr);
    std::_Exit(2);
  }
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void enable() {
  util::setParallelObserver(&poolObserver);
  g_enabled.store(true, std::memory_order_relaxed);
}

void disable() { g_enabled.store(false, std::memory_order_relaxed); }

void reset() {
  GlobalState& g = global();
  std::lock_guard<std::mutex> lk(g.mu);
  g.dead_acc.clear();
  for (ThreadState* ts : g.live) {
    std::lock_guard<std::mutex> tlk(ts->mu);
    ts->acc.clear();
  }
  g.pool_threads.store(0, std::memory_order_relaxed);
  g.pool_lifetime_ns.store(0, std::memory_order_relaxed);
  g.pool_busy_ns.store(0, std::memory_order_relaxed);
  g.pool_tasks.store(0, std::memory_order_relaxed);
}

void enableWithReportAtExit(const std::string& path) {
  static std::once_flag once;
  atexitPath() = path;
  std::call_once(once, [] { std::atexit(&atexitWriter); });
  enable();
}

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Scope::Scope(const char* name) : live_(enabled()) {
  if (!live_) return;
  ThreadState& ts = threadState();
  Frame f;
  f.path_len = ts.path.size();
  if (!ts.path.empty()) ts.path += '/';
  ts.path += name;
  f.alloc0 = threadAllocCount();
  f.bytes0 = threadAllocBytes();
  f.t0_ns = nowNs();
  ts.stack.push_back(f);
}

Scope::~Scope() {
  if (!live_) return;
  const std::uint64_t t1 = nowNs();
  ThreadState& ts = threadState();
  const Frame f = ts.stack.back();
  ts.stack.pop_back();
  Acc a;
  a.ns = t1 - f.t0_ns;
  a.count = 1;
  a.allocs = threadAllocCount() - f.alloc0;
  a.bytes = threadAllocBytes() - f.bytes0;
  {
    std::lock_guard<std::mutex> lk(ts.mu);
    ts.acc[ts.path] += a;
  }
  ts.path.resize(f.path_len);
}

void addSample(const char* rel_path, std::uint64_t wall_ns) {
  if (!enabled()) return;
  ThreadState& ts = threadState();
  const std::string key =
      ts.path.empty() ? std::string(rel_path) : ts.path + "/" + rel_path;
  Acc a;
  a.ns = wall_ns;
  a.count = 1;
  std::lock_guard<std::mutex> lk(ts.mu);
  ts.acc[key] += a;
}

void notePool(unsigned threads, std::uint64_t lifetime_ns, std::uint64_t busy_ns,
              std::uint64_t tasks) {
  util::ParallelStats s;
  s.threads = threads;
  // lifetime_ns here is already thread-summed by direct callers, so undo the
  // per-thread multiply the observer applies.
  s.lifetime_ns = threads > 0 ? lifetime_ns / threads : lifetime_ns;
  s.busy_ns = busy_ns;
  s.tasks = tasks;
  poolObserver(s);
}

double Report::poolUtilization() const {
  if (pool_lifetime_ns == 0) return 0.0;
  const double u =
      static_cast<double>(pool_busy_ns) / static_cast<double>(pool_lifetime_ns);
  return u > 1.0 ? 1.0 : u;
}

Report snapshot() {
  GlobalState& g = global();
  std::unordered_map<std::string, Acc> flat;
  {
    std::lock_guard<std::mutex> lk(g.mu);
    flat = g.dead_acc;
    for (ThreadState* ts : g.live) {
      std::lock_guard<std::mutex> tlk(ts->mu);
      for (const auto& [k, v] : ts->acc) flat[k] += v;
    }
  }
  Report r;
  buildTree(flat, r.root);
  r.peak_rss_bytes = util::peakRssBytes();
  r.current_rss_bytes = util::currentRssBytes();
  r.pool_threads = g.pool_threads.load(std::memory_order_relaxed);
  r.pool_lifetime_ns = g.pool_lifetime_ns.load(std::memory_order_relaxed);
  r.pool_busy_ns = g.pool_busy_ns.load(std::memory_order_relaxed);
  r.pool_tasks = g.pool_tasks.load(std::memory_order_relaxed);
  return r;
}

void publishMetrics(const Report& r, MetricsRegistry& reg) {
  publishNode(r.root, "", reg);
  reg.counter("profile.peak_rss_bytes", r.peak_rss_bytes);
  reg.counter("profile.current_rss_bytes", r.current_rss_bytes);
  reg.counter("profile.pool.threads", r.pool_threads);
  reg.gauge("profile.pool.busy_ms", static_cast<double>(r.pool_busy_ns) / 1e6);
  reg.gauge("profile.pool.idle_ms", static_cast<double>(r.poolIdleNs()) / 1e6);
  reg.gauge("profile.pool.utilization", r.poolUtilization());
  reg.counter("profile.pool.tasks", r.pool_tasks);
}

std::string reportJson(const Report& r) {
  util::JsonObject pool;
  pool.add("threads", static_cast<std::uint64_t>(r.pool_threads))
      .add("busy_ms", static_cast<double>(r.pool_busy_ns) / 1e6)
      .add("idle_ms", static_cast<double>(r.poolIdleNs()) / 1e6)
      .add("utilization", r.poolUtilization())
      .add("tasks", r.pool_tasks);
  std::vector<std::string> phases;
  phases.reserve(r.root.children.size());
  for (const auto& [name, child] : r.root.children) {
    phases.push_back(nodeJson(child, name));
  }
  util::JsonObject o;
  o.add("schema", "nwc-profile-v1")
      .add("git_sha", buildGitSha())
      .add("dirty", buildGitDirty())
      .addRaw("host", util::hostInfoJson())
      .add("total_wall_ms", static_cast<double>(r.root.wall_ns) / 1e6)
      .add("peak_rss_bytes", r.peak_rss_bytes)
      .add("current_rss_bytes", r.current_rss_bytes)
      .addRaw("pool", pool.str());
  o.addRaw("phases", util::jsonArray(phases));
  return o.str();
}

void writeReport(const std::string& path) {
  util::writeFile(path, reportJson(snapshot()) + "\n");
}

}  // namespace nwc::obs::prof
