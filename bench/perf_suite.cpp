// perf_suite: the simulator's own performance benchmark.
//
//   perf_suite [--tag=NAME] [--out=FILE] [--trials=N] [--warmup=N]
//              [--scale=F] [--jobs=N]
//
// Runs a pinned canonical workload set — one execution-driven run per
// SystemKind, a small parallel grid, a 64-node run, the block front end and
// an engine micro — with warmup plus median-of-N trials, and emits a
// schema-versioned BENCH_<tag>.json: per-phase host wall ms (from the
// obs::prof phase tree), pages/s throughput, peak RSS, thread-pool
// utilization, and host provenance. tools/nwcperf compares two such files
// and gates CI on the ratio.
//
// This watches the *simulator*, not the simulated machine: simulated
// results are pinned by config+seed and only used to sanity-check that
// every trial simulated the same work.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "sim/engine.hpp"
#include "machine/config.hpp"
#include "obs/bench_compare.hpp"
#include "obs/profiler.hpp"
#include "obs/run_meta.hpp"
#include "util/host.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace {

using namespace nwc;

struct SuiteOptions {
  std::string tag = "local";
  std::string out;          // default BENCH_<tag>.json
  unsigned trials = 5;
  unsigned warmup = 1;
  double scale = 0.1;       // pinned canonical scale
  unsigned jobs = 2;        // parallel-grid workload width
};

[[noreturn]] void usage(int code) {
  std::printf(
      "usage: perf_suite [options]\n"
      "  --tag=NAME    label baked into the file name and JSON (default local)\n"
      "  --out=FILE    output path (default BENCH_<tag>.json)\n"
      "  --trials=N    measured trials per workload, median reported (default 5)\n"
      "  --warmup=N    unmeasured warmup runs per workload (default 1)\n"
      "  --scale=F     input scale for the canonical workloads (default 0.1)\n"
      "  --jobs=N      threads for the parallel-grid workload (default 2)\n");
  std::exit(code);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// One trial's raw readings.
struct TrialSample {
  double wall_ms = 0.0;
  double pages_per_s = 0.0;
  double events_per_s = 0.0;
  double pool_utilization = 0.0;
  std::map<std::string, double> phase_wall_ms;
};

// Flattens the profiler's top-level phases into name -> wall ms. Nested
// phases (event-loop/destage-drain) are folded in as "a/b" keys.
void collectPhases(const obs::prof::Node& n, const std::string& prefix,
                   std::map<std::string, double>& out) {
  for (const auto& [name, child] : n.children) {
    const std::string key = prefix.empty() ? name : prefix + "/" + name;
    out[key] += static_cast<double>(child.wall_ns) / 1e6;
    collectPhases(child, key, out);
  }
}

struct MeasuredWorkload {
  obs::bench::Workload result;
  std::uint64_t check_exec_pcycles = 0;  // simulated result, must be stable
};

// Runs `body` (one full simulation) warmup+trials times and reduces the
// trials to medians. `body` returns the trial's throughput numerator
// (pages touched by the paging system) and events processed.
template <typename Body>
MeasuredWorkload measure(const std::string& name, const SuiteOptions& opt,
                         Body&& body) {
  std::fprintf(stderr, "perf_suite: %s (%u warmup + %u trials)\n", name.c_str(),
               opt.warmup, opt.trials);
  std::vector<TrialSample> samples;
  std::uint64_t check = 0;
  for (unsigned t = 0; t < opt.warmup + opt.trials; ++t) {
    obs::prof::reset();
    const auto w0 = std::chrono::steady_clock::now();
    const apps::RunSummary s = body();
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - w0)
                               .count();
    if (!s.verified) {
      throw std::runtime_error(name + ": simulation failed verification");
    }
    if (check == 0) {
      check = static_cast<std::uint64_t>(s.exec_time);
    } else if (check != static_cast<std::uint64_t>(s.exec_time)) {
      throw std::runtime_error(name + ": simulated result changed across trials");
    }
    if (t < opt.warmup) continue;

    TrialSample sample;
    sample.wall_ms = wall_ms;
    const double wall_s = wall_ms / 1e3;
    const double pages = static_cast<double>(s.metrics.faults) +
                         static_cast<double>(s.metrics.swap_outs) +
                         static_cast<double>(s.metrics.clean_evictions);
    sample.pages_per_s = wall_s > 0.0 ? pages / wall_s : 0.0;
    sample.events_per_s =
        wall_s > 0.0 ? static_cast<double>(s.engine_events) / wall_s : 0.0;
    const obs::prof::Report rep = obs::prof::snapshot();
    sample.pool_utilization = rep.poolUtilization();
    collectPhases(rep.root, "", sample.phase_wall_ms);
    samples.push_back(std::move(sample));
  }

  MeasuredWorkload out;
  out.check_exec_pcycles = check;
  out.result.name = name;
  auto pick = [&](auto get) {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const TrialSample& s : samples) v.push_back(get(s));
    return median(std::move(v));
  };
  out.result.wall_ms = pick([](const TrialSample& s) { return s.wall_ms; });
  out.result.pages_per_s = pick([](const TrialSample& s) { return s.pages_per_s; });
  out.result.events_per_s =
      pick([](const TrialSample& s) { return s.events_per_s; });
  out.result.pool_utilization =
      pick([](const TrialSample& s) { return s.pool_utilization; });
  out.result.peak_rss_bytes = util::peakRssBytes();
  std::map<std::string, std::vector<double>> by_phase;
  for (const TrialSample& s : samples) {
    for (const auto& [k, v] : s.phase_wall_ms) by_phase[k].push_back(v);
  }
  for (auto& [k, v] : by_phase) {
    // A phase missing from some trials medians over the trials that saw it;
    // pad with zeros so it medians to zero when most trials skipped it.
    while (v.size() < samples.size()) v.push_back(0.0);
    out.result.phase_wall_ms[k] = median(v);
  }
  return out;
}

// Pure engine churn for the micro/engine-calendar workload: 64 lanes of
// deterministic mixed-stride delays, so timing-wheel slots hold both
// several same-tick events and single ones, and a lane whose next tick is
// strictly before every pending event wakes inline.
sim::Task<> churnTask(sim::Engine& e, int lane) {
  for (int i = 0; i < 20000; ++i) co_await e.delay(1 + ((i + lane) & 7));
}

machine::MachineConfig pinnedConfig(machine::SystemKind sys) {
  machine::MachineConfig cfg;
  cfg.withSystem(sys, machine::Prefetch::kOptimal);
  cfg.seed = 0x5eed;
  return cfg;
}

std::string benchJson(const SuiteOptions& opt,
                      const std::vector<obs::bench::Workload>& workloads) {
  std::vector<std::string> wl_json;
  wl_json.reserve(workloads.size());
  for (const obs::bench::Workload& w : workloads) {
    util::JsonObject phases;
    for (const auto& [k, v] : w.phase_wall_ms) phases.add(k, v);
    util::JsonObject o;
    o.add("name", w.name)
        .add("wall_ms", w.wall_ms)
        .add("pages_per_s", w.pages_per_s)
        .add("events_per_s", w.events_per_s)
        .add("peak_rss_bytes", w.peak_rss_bytes)
        .add("pool_utilization", w.pool_utilization)
        .addRaw("phases", phases.str());
    wl_json.push_back(o.str());
  }
  util::JsonObject o;
  o.add("schema", obs::bench::kBenchSchema)
      .add("tag", opt.tag)
      .add("git_sha", obs::buildGitSha())
      .add("trials", static_cast<std::uint64_t>(opt.trials))
      .add("scale", opt.scale)
      .addRaw("host", util::hostInfoJson())
      .addRaw("workloads", util::jsonArray(wl_json));
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  SuiteOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* prefix) { return a.substr(std::strlen(prefix)); };
    if (a.rfind("--tag=", 0) == 0) {
      opt.tag = val("--tag=");
    } else if (a.rfind("--out=", 0) == 0) {
      opt.out = val("--out=");
    } else if (a.rfind("--trials=", 0) == 0) {
      opt.trials = static_cast<unsigned>(std::atoi(val("--trials=").c_str()));
    } else if (a.rfind("--warmup=", 0) == 0) {
      opt.warmup = static_cast<unsigned>(std::atoi(val("--warmup=").c_str()));
    } else if (a.rfind("--scale=", 0) == 0) {
      opt.scale = std::atof(val("--scale=").c_str());
    } else if (a.rfind("--jobs=", 0) == 0) {
      opt.jobs = static_cast<unsigned>(std::atoi(val("--jobs=").c_str()));
    } else if (a == "--help" || a == "-h") {
      usage(0);
    } else {
      std::fprintf(stderr, "perf_suite: unknown flag %s\n", a.c_str());
      usage(2);
    }
  }
  if (opt.trials == 0 || opt.scale <= 0.0 || opt.scale > 1.0 || opt.jobs == 0) {
    std::fprintf(stderr, "perf_suite: need --trials>0, --jobs>0, --scale in (0,1]\n");
    return 2;
  }
  if (opt.out.empty()) opt.out = "BENCH_" + opt.tag + ".json";

  try {
    // The profiler is the suite's measuring instrument: enabled for the whole
    // process, reset per trial.
    obs::prof::enable();
    std::vector<obs::bench::Workload> workloads;

    // 1) Execution-driven canonical run per SystemKind (radix: the paper's
    // most write-intensive kernel, so every backend's destage path runs).
    static constexpr machine::SystemKind kSystems[] = {
        machine::SystemKind::kStandard, machine::SystemKind::kNWCache,
        machine::SystemKind::kDCD, machine::SystemKind::kRemoteMemory};
    for (const machine::SystemKind sys : kSystems) {
      const machine::MachineConfig cfg = pinnedConfig(sys);
      const std::string name = std::string("radix/") + machine::toString(sys);
      workloads.push_back(measure(name, opt, [&] {
                            return apps::runApp(cfg, "radix", opt.scale);
                          }).result);
    }

    // 2) Parallel grid: independent simulations on a work-stealing pool —
    // the thread-pool utilization path nwcbatch exercises.
    {
      static const char* kApps[] = {"radix", "sor", "mg", "gauss"};
      const machine::MachineConfig cfg = pinnedConfig(machine::SystemKind::kNWCache);
      workloads.push_back(
          measure("parallel-grid/nwcache", opt, [&] {
            std::vector<apps::RunSummary> results(std::size(kApps));
            util::ParallelExecutor exec(opt.jobs);
            exec.forEachIndex(std::size(kApps), [&](std::size_t i) {
              results[i] = apps::runApp(cfg, kApps[i], opt.scale);
            });
            // Reduce to one summary: verification and the work totals the
            // throughput numbers are derived from.
            apps::RunSummary agg = results[0];
            for (std::size_t i = 1; i < results.size(); ++i) {
              agg.verified = agg.verified && results[i].verified;
              agg.exec_time += results[i].exec_time;
              agg.engine_events += results[i].engine_events;
              agg.metrics.faults += results[i].metrics.faults;
              agg.metrics.swap_outs += results[i].metrics.swap_outs;
              agg.metrics.clean_evictions += results[i].metrics.clean_evictions;
            }
            return agg;
          }).result);
    }

    // 3) The 64-node canonical workload: coherence-bound engine cost at
    // the machine's largest node count.
    {
      machine::MachineConfig cfg = pinnedConfig(machine::SystemKind::kNWCache);
      cfg.num_nodes = 64;
      cfg.num_io_nodes = 8;
      workloads.push_back(measure("radix64/serial", opt, [&] {
                            return apps::runApp(cfg, "radix", opt.scale);
                          }).result);
    }

    // 4) Block-trace front end: synthetic generation (inside the runner's
    // "setup" phase) plus the blockAccess serve loop — the storage-workload
    // hot path nwcgen-produced traces replay through. Scaled like the
    // kernels so --scale trims it proportionally.
    {
      const machine::MachineConfig cfg = pinnedConfig(machine::SystemKind::kNWCache);
      static const char* kSpec =
          "synth:clients=32;objects=8192;ops=20000;seed=24301";
      workloads.push_back(measure("synth/blockserve", opt, [&] {
                            return apps::runApp(cfg, kSpec, opt.scale);
                          }).result);
    }

    // 5) Engine/calendar micro: event-loop churn with no machine model on
    // top, isolating CalendarQueue push/pop and inline wake-ups.
    // The summary is fabricated (there is no app to verify); exec_time pins
    // determinism across trials like every other workload.
    workloads.push_back(measure("micro/engine-calendar", opt, [&] {
                          sim::Engine e;
                          for (int lane = 0; lane < 64; ++lane) {
                            e.spawn(churnTask(e, lane));
                          }
                          e.run();
                          apps::RunSummary s;
                          s.app = "micro";
                          s.verified = true;
                          s.exec_time = e.now();
                          s.engine_events = e.eventsProcessed();
                          return s;
                        }).result);

    const std::string json = benchJson(opt, workloads);
    {
      std::ofstream out(opt.out, std::ios::binary);
      if (!out) throw std::runtime_error("perf_suite: cannot open " + opt.out);
      out << json << "\n";
      if (!out) throw std::runtime_error("perf_suite: write failed for " + opt.out);
    }
    // Round-trip through the comparison parser so an emit/parse mismatch
    // fails here, not later in CI.
    obs::bench::readBenchFile(opt.out);
    std::printf("wrote %s (%zu workloads, %u trials each)\n", opt.out.c_str(),
                workloads.size(), opt.trials);
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perf_suite: %s\n", ex.what());
    return 1;
  }
}
