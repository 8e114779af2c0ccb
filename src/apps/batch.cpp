#include "apps/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <stdexcept>
#include <stop_token>
#include <thread>

#include "apps/registry.hpp"
#include "apps/workload.hpp"
#include "machine/config_io.hpp"
#include "obs/registry.hpp"
#include "obs/run_meta.hpp"
#include "obs/sampler.hpp"
#include "util/host.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace nwc::apps {

std::string cellStem(std::size_t index, const std::string& app,
                     const machine::MachineConfig& cfg) {
  std::string safe_app = app;
  for (char& c : safe_app) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '-';
  }
  char cell[32];
  std::snprintf(cell, sizeof(cell), "cell%04zu_", index);
  return cell + safe_app + "_" + machine::toString(cfg.system) + "_" +
         machine::toString(cfg.prefetch) + "_s" + std::to_string(cfg.seed);
}

BatchSpec BatchSpec::fromIni(const util::IniFile& ini) {
  static const std::set<std::string> kKeys = {
      "apps",           "systems", "prefetch",        "seeds",     "scale",
      "best_min_free",  "jsonl",   "meta_dir",        "jobs",
      "heartbeat_secs", "sample_interval", "sample_dir"};
  for (const auto& [full_key, value] : ini.values()) {
    (void)value;
    if (full_key.rfind("batch.", 0) != 0) continue;
    if (!kKeys.contains(full_key.substr(6))) {
      throw std::runtime_error("unknown [batch] key: " + full_key.substr(6));
    }
  }
  BatchSpec spec;
  spec.grid.heartbeat_secs = 2;
  machine::applyIni(ini, spec.base);

  if (const auto v = ini.get("batch.apps")) {
    spec.apps = util::splitList(*v);
    for (const auto& a : spec.apps) {
      // Kernel names and workload specs (synth:/trace:) are both valid;
      // specs use ';' between knobs, so the comma list stays unambiguous.
      if (const std::string err = workloadSpecError(a); !err.empty()) {
        throw std::runtime_error("batch: " + err);
      }
    }
  } else {
    for (const auto& a : appRegistry()) spec.apps.push_back(a.name);
  }

  if (const auto v = ini.get("batch.systems")) {
    for (const auto& s : util::splitList(*v)) {
      spec.systems.push_back(machine::systemKindFromString(s));
    }
  } else {
    spec.systems = {machine::SystemKind::kStandard, machine::SystemKind::kNWCache};
  }

  if (const auto v = ini.get("batch.prefetch")) {
    for (const auto& p : util::splitList(*v)) {
      spec.prefetches.push_back(machine::prefetchFromString(p));
    }
  } else {
    spec.prefetches = {machine::Prefetch::kOptimal, machine::Prefetch::kNaive};
  }

  if (const auto v = ini.get("batch.seeds")) {
    for (const auto& s : util::splitList(*v)) {
      spec.seeds.push_back(util::seedValue("[batch] seeds", s));
    }
  } else {
    spec.seeds = {spec.base.seed};
  }

  if (const auto v = ini.get("batch.scale")) {
    spec.grid.scale = util::positiveFlag("[batch] scale", *v, false, 1.0);
  }
  if (const auto v = ini.getBool("batch.best_min_free")) spec.best_min_free = *v;
  if (const auto v = ini.get("batch.jsonl")) spec.jsonl_path = *v;
  if (const auto v = ini.get("batch.meta_dir")) spec.grid.meta_dir = *v;
  if (const auto v = ini.getInt("batch.jobs")) {
    // The same ceiling as the --jobs flags; 0 keeps meaning all cores.
    if (*v < 0 || *v > 4096) throw std::runtime_error("batch: jobs must be in [0, 4096]");
    spec.grid.jobs = static_cast<unsigned>(*v);
  }
  if (const auto v = ini.getInt("batch.heartbeat_secs")) {
    if (*v < 0) throw std::runtime_error("batch: heartbeat_secs must be >= 0");
    spec.grid.heartbeat_secs = static_cast<unsigned>(*v);
  }
  if (const auto v = ini.getInt("batch.sample_interval")) {
    if (*v < 0) throw std::runtime_error("batch: sample_interval must be >= 0");
    spec.grid.sample_interval = static_cast<sim::Tick>(*v);
  }
  if (const auto v = ini.get("batch.sample_dir")) spec.grid.sample_dir = *v;
  if (!spec.grid.sample_dir.empty() && spec.grid.sample_interval == 0) {
    throw std::runtime_error("batch: sample_dir requires sample_interval > 0");
  }
  // Check every cell's machine before any runs. The system decides which
  // keys are checked (the ring's only on nwcache); prefetch, seed and the
  // best min-free reserve are always legal.
  for (machine::SystemKind sys : spec.systems) {
    machine::MachineConfig cfg = spec.base;
    cfg.system = sys;
    cfg.validate();
  }
  return spec;
}

std::string summaryJson(const RunSummary& s, double scale) {
  const auto& m = s.metrics;
  util::JsonObject o;
  o.add("app", s.app)
      .add("system", machine::toString(s.cfg.system))
      .add("prefetch", machine::toString(s.cfg.prefetch))
      .add("seed", static_cast<std::uint64_t>(s.cfg.seed))
      .add("scale", scale)
      .add("verified", s.verified)
      .add("invariants_ok", s.invariant_violations.empty())
      .add("exec_pcycles", static_cast<std::uint64_t>(s.exec_time))
      .add("faults", static_cast<std::uint64_t>(m.faults))
      .add("swap_outs", static_cast<std::uint64_t>(m.swap_outs))
      .add("clean_evictions", static_cast<std::uint64_t>(m.clean_evictions))
      .add("nacks", static_cast<std::uint64_t>(m.nacks))
      .add("shootdowns", static_cast<std::uint64_t>(m.shootdowns))
      .add("swap_out_mean_pcycles", m.swap_out_ticks.mean())
      .add("fault_mean_pcycles", m.fault_ticks.mean())
      .add("write_combining", m.write_combining.mean())
      .add("ring_hit_rate", m.ring_read_hits.rate())
      .add("remote_stores", static_cast<std::uint64_t>(m.remote_stores))
      .add("nofree_pcycles", static_cast<std::uint64_t>(m.totalNoFree()))
      .add("transit_pcycles", static_cast<std::uint64_t>(m.totalTransit()))
      .add("fault_pcycles", static_cast<std::uint64_t>(m.totalFault()))
      .add("tlb_pcycles", static_cast<std::uint64_t>(m.totalTlb()))
      .add("other_pcycles", static_cast<std::uint64_t>(m.totalOther()))
      .add("accesses", static_cast<std::uint64_t>(m.totalAccesses()))
      .add("engine_events", static_cast<std::uint64_t>(s.engine_events));
  // Only sampled runs carry a verdict, so unsampled outputs (and their CI
  // goldens) keep their exact historical bytes.
  if (!s.health_verdict.empty()) {
    o.add("health", s.health_verdict).add("health_trips", s.health_trips);
  }
  // Same conditional-output discipline for the block-stream front end:
  // kernel runs never issue block requests, so their bytes are unchanged.
  if (m.block_reads != 0 || m.block_writes != 0) {
    o.add("block_reads", static_cast<std::uint64_t>(m.block_reads))
        .add("block_writes", static_cast<std::uint64_t>(m.block_writes));
  }
  return o.str();
}

std::vector<GridCell> BatchSpec::cells() const {
  std::vector<GridCell> out;
  out.reserve(runCount());
  for (const std::string& app : apps) {
    for (machine::SystemKind sys : systems) {
      for (machine::Prefetch pf : prefetches) {
        for (std::uint64_t seed : seeds) {
          machine::MachineConfig cfg = base;
          cfg.system = sys;
          cfg.prefetch = pf;
          cfg.seed = seed;
          if (best_min_free) {
            cfg.min_free_frames = machine::MachineConfig::bestMinFree(sys, pf);
          }
          out.push_back({app, std::move(cfg)});
        }
      }
    }
  }
  return out;
}

std::vector<RunSummary> runGrid(const std::vector<GridCell>& cells,
                                const GridOptions& opt) {
  for (const std::string* dir : {&opt.meta_dir, &opt.sample_dir, &opt.metrics_dir}) {
    if (!dir->empty()) std::filesystem::create_directories(*dir);
  }
  const util::ParallelExecutor exec(opt.jobs);
  if (opt.progress != nullptr) {
    *opt.progress << "  running " << cells.size() << " simulations on "
                  << std::min<std::size_t>(exec.jobs(), cells.size()) << " threads\n";
  }

  // Per-cell provenance: wall time and RSS are intentionally kept out of the
  // summaries (they would break the serial-vs-parallel byte-identity) and
  // land here instead. Peak RSS is the process high-water mark, so for a
  // parallel grid it is an upper bound on the cell's own footprint.
  auto writeCellMeta = [&](const GridCell& c, const std::string& stem,
                           const RunSummary& s, double wall_ms) {
    obs::RunMeta meta;
    meta.app = c.app;
    meta.system = machine::toString(c.cfg.system);
    meta.prefetch = machine::toString(c.cfg.prefetch);
    meta.seed = c.cfg.seed;
    meta.scale = opt.scale;
    meta.config_hash = obs::fnv1aHash(machine::toIni(c.cfg).serialize());
    meta.git_sha = obs::buildGitSha();
    meta.dirty = obs::buildGitDirty();
    meta.wall_ms = wall_ms;
    meta.peak_rss_bytes = util::peakRssBytes();
    meta.exec_pcycles = static_cast<std::uint64_t>(s.exec_time);
    meta.verified = s.verified;
    meta.health_verdict = s.health_verdict;
    meta.health_trips = s.health_trips;
    meta.fillHostFields();
    meta.write(opt.meta_dir + "/" + stem + ".json");
  };

  // Largest RSS observed right after a cell finished (process-wide, so
  // parallel runs see the sum of concurrent workers).
  std::atomic<std::uint64_t> cell_rss_peak{0};

  auto runCell = [&](std::size_t i) {
    const GridCell& c = cells[i];
    const std::string stem = cellStem(i, c.app, c.cfg);
    const auto w0 = std::chrono::steady_clock::now();
    ObsSinks sinks;
    // Per-cell telemetry: samples are taken at simulated ticks, so the
    // exported series are byte-identical at any job count.
    std::unique_ptr<obs::Sampler> sampler;
    if (opt.sample_interval > 0) {
      obs::SamplerConfig scfg;
      scfg.interval = opt.sample_interval;
      sampler = std::make_unique<obs::Sampler>(scfg, healthContextFor(c.cfg));
      sinks.sampler = sampler.get();
    }
    obs::MetricsRegistry registry;
    if (!opt.metrics_dir.empty()) sinks.registry = &registry;
    RunSummary s = runApp(c.cfg, c.app, opt.scale, sinks);
    if (sinks.registry != nullptr) {
      registry.writeJson(opt.metrics_dir + "/" + stem + ".json");
    }
    if (sampler != nullptr && !opt.sample_dir.empty()) {
      sampler->writeJson(opt.sample_dir + "/" + stem + ".timeseries.json");
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - w0)
            .count();
    std::uint64_t rss = util::currentRssBytes();
    std::uint64_t seen = cell_rss_peak.load(std::memory_order_relaxed);
    while (rss > seen &&
           !cell_rss_peak.compare_exchange_weak(seen, rss, std::memory_order_relaxed)) {
    }
    if (!opt.meta_dir.empty()) writeCellMeta(c, stem, s, wall_ms);
    return s;
  };

  util::ProgressMeter meter(cells.size(), opt.progress);

  // Heartbeat: a low-duty background thread announcing done/running/ETA
  // and the process RSS while the grid executes. Leaving scope (normally or
  // by an exception) requests its stop and joins it.
  std::jthread heartbeat;
  if (opt.progress != nullptr && opt.heartbeat_secs > 0) {
    heartbeat = std::jthread([&](std::stop_token stop) {
      std::mutex mutex;
      std::condition_variable_any wake;
      std::unique_lock<std::mutex> lk(mutex);
      while (!wake.wait_for(lk, stop, std::chrono::seconds(opt.heartbeat_secs),
                            [&] { return stop.stop_requested(); })) {
        meter.heartbeat("rss=" + util::formatBytes(util::currentRssBytes()) +
                        " peak=" + util::formatBytes(util::peakRssBytes()) +
                        " cell_peak=" +
                        util::formatBytes(cell_rss_peak.load(std::memory_order_relaxed)));
      }
    });
  }

  std::vector<RunSummary> out(cells.size());
  exec.forEachIndex(cells.size(), [&](std::size_t i) {
    meter.started();
    RunSummary s = runCell(i);
    meter.completed(cells[i].app + " on " + cells[i].cfg.describe(), s.ok());
    out[i] = std::move(s);
  });
  heartbeat = {};

  if (opt.progress != nullptr) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!out[i].verified) {
        *opt.progress << "  WARNING: " << cells[i].app
                      << " numerical verification FAILED\n";
      }
      if (!out[i].invariant_violations.empty()) {
        *opt.progress << "  WARNING: invariant violations:\n"
                      << out[i].invariant_violations;
      }
    }
  }
  return out;
}

BatchResult runBatch(const BatchSpec& spec) {
  // Opened before the grid runs, so a bad path fails before any simulation.
  std::ofstream jsonl;
  if (!spec.jsonl_path.empty()) {
    jsonl.open(spec.jsonl_path, std::ios::out | std::ios::trunc);
    if (!jsonl) throw std::runtime_error("batch: cannot open " + spec.jsonl_path);
  }
  BatchResult result;
  result.runs = runGrid(spec.cells(), spec.grid);
  for (const RunSummary& s : result.runs) {
    result.all_ok = result.all_ok && s.ok();
  }

  // Outputs are emitted after the grid settles, in grid order, so the files
  // never depend on completion order.
  if (jsonl.is_open()) {
    for (std::size_t i = 0; i < result.runs.size(); ++i) {
      jsonl << "{\"cell\":" << i << ","
            << summaryJson(result.runs[i], spec.grid.scale).substr(1) << "\n";
    }
    jsonl.close();
    if (!jsonl) throw std::runtime_error("batch: cannot write " + spec.jsonl_path);
  }
  return result;
}

}  // namespace nwc::apps
