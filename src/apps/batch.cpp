#include "apps/batch.hpp"

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
#include <thread>

#include "apps/registry.hpp"
#include "apps/workload.hpp"
#include "machine/config_io.hpp"
#include "obs/run_meta.hpp"
#include "obs/sampler.hpp"
#include "util/csv.hpp"
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
      "best_min_free",  "csv",     "jsonl",           "meta_dir",  "jobs",
      "heartbeat_secs", "resume",  "sample_interval", "sample_dir"};
  for (const auto& [full_key, value] : ini.values()) {
    (void)value;
    if (full_key.rfind("batch.", 0) != 0) continue;
    if (!kKeys.contains(full_key.substr(6))) {
      throw std::runtime_error("unknown [batch] key: " + full_key.substr(6));
    }
  }
  BatchSpec spec;
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

  if (const auto v = ini.getDouble("batch.scale")) spec.scale = *v;
  if (spec.scale <= 0.0 || spec.scale > 1.0) {
    throw std::runtime_error("batch: scale must be in (0, 1]");
  }
  if (const auto v = ini.getBool("batch.best_min_free")) spec.best_min_free = *v;
  if (const auto v = ini.get("batch.csv")) spec.csv_path = *v;
  if (const auto v = ini.get("batch.jsonl")) spec.jsonl_path = *v;
  if (const auto v = ini.get("batch.meta_dir")) spec.meta_dir = *v;
  if (const auto v = ini.getInt("batch.jobs")) {
    // The same ceiling as the --jobs flags; 0 keeps meaning all cores.
    if (*v < 0 || *v > 4096) throw std::runtime_error("batch: jobs must be in [0, 4096]");
    spec.jobs = static_cast<unsigned>(*v);
  }
  if (const auto v = ini.getInt("batch.heartbeat_secs")) {
    if (*v < 0) throw std::runtime_error("batch: heartbeat_secs must be >= 0");
    spec.heartbeat_secs = static_cast<unsigned>(*v);
  }
  if (const auto v = ini.getBool("batch.resume")) spec.resume = *v;
  if (const auto v = ini.getInt("batch.sample_interval")) {
    if (*v < 0) throw std::runtime_error("batch: sample_interval must be >= 0");
    spec.sample_interval = static_cast<sim::Tick>(*v);
  }
  if (const auto v = ini.get("batch.sample_dir")) spec.sample_dir = *v;
  if (!spec.sample_dir.empty() && spec.sample_interval == 0) {
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

std::vector<std::string> summaryCsvHeader() {
  return {"app",       "system",    "prefetch",      "seed",
          "scale",     "verified",  "exec_pcycles",  "faults",
          "swap_outs", "nacks",     "swap_out_mean", "fault_mean",
          "combining", "ring_rate", "nofree",        "transit",
          "fault",     "tlb",       "other"};
}

std::vector<std::string> summaryCsvRow(const RunSummary& s, double scale) {
  const auto& m = s.metrics;
  auto d = [](double v) { return std::to_string(v); };
  auto u = [](std::uint64_t v) { return std::to_string(v); };
  return {s.app,
          machine::toString(s.cfg.system),
          machine::toString(s.cfg.prefetch),
          u(s.cfg.seed),
          d(scale),
          s.verified ? "1" : "0",
          u(s.exec_time),
          u(m.faults),
          u(m.swap_outs),
          u(m.nacks),
          d(m.swap_out_ticks.mean()),
          d(m.fault_ticks.mean()),
          d(m.write_combining.mean()),
          d(m.ring_read_hits.rate()),
          u(m.totalNoFree()),
          u(m.totalTransit()),
          u(m.totalFault()),
          u(m.totalTlb()),
          u(m.totalOther())};
}

BatchResult runBatch(const BatchSpec& spec, std::ostream* progress) {
  // Materialize the grid first: each cell's config (including its seed) is
  // a pure function of its coordinates, never of execution order.
  struct Cell {
    std::string app;
    machine::MachineConfig cfg;
  };
  std::vector<Cell> grid;
  grid.reserve(spec.runCount());
  for (const std::string& app : spec.apps) {
    for (machine::SystemKind sys : spec.systems) {
      for (machine::Prefetch pf : spec.prefetches) {
        for (std::uint64_t seed : spec.seeds) {
          machine::MachineConfig cfg = spec.base;
          cfg.system = sys;
          cfg.prefetch = pf;
          cfg.seed = seed;
          if (spec.best_min_free) {
            cfg.min_free_frames = machine::MachineConfig::bestMinFree(sys, pf);
          }
          grid.push_back({app, std::move(cfg)});
        }
      }
    }
  }

  BatchResult result;
  result.runs.resize(grid.size());

  // One JSONL line per completed cell, prefixed with its grid index — the
  // line is both the result row and the resume checkpoint.
  auto cellLine = [&](std::size_t i, const RunSummary& s) {
    return "{\"cell\":" + std::to_string(i) + "," +
           summaryJson(s, spec.scale).substr(1);
  };

  // Resume: trust a checkpoint line only if its index AND coordinates match
  // the current grid (coordinates come from the grid, not the file, so a
  // changed INI invalidates stale cells instead of skipping wrong ones).
  std::vector<bool> resumed(grid.size(), false);
  std::vector<std::string> resumed_lines(grid.size());
  std::vector<std::vector<std::string>> resumed_csv(grid.size());
  if (spec.resume) {
    if (spec.jsonl_path.empty()) {
      throw std::runtime_error("batch: resume requires a jsonl path");
    }
    std::ifstream in(spec.jsonl_path);
    std::string line;
    while (in && std::getline(in, line)) {
      if (line.empty()) continue;
      try {
        const util::JsonValue v = util::parseJson(line);
        const util::JsonValue* cell = v.find("cell");
        if (cell == nullptr) continue;
        const std::size_t i = static_cast<std::size_t>(cell->number);
        if (i >= grid.size() || resumed[i]) continue;
        const Cell& c = grid[i];
        if (v.at("app").string != c.app ||
            v.at("system").string != machine::toString(c.cfg.system) ||
            v.at("prefetch").string != machine::toString(c.cfg.prefetch) ||
            v.at("seed").number != static_cast<double>(c.cfg.seed) ||
            v.at("scale").number != spec.scale) {
          continue;
        }
        // Partial reconstruction: enough for the result table, all_ok and
        // the CSV row. Histogram/accumulator internals are not persisted,
        // so means are re-seeded as single samples.
        RunSummary s;
        s.app = c.app;
        s.cfg = c.cfg;
        s.exec_time = static_cast<sim::Tick>(v.at("exec_pcycles").number);
        s.verified = v.at("verified").boolean;
        if (!v.at("invariants_ok").boolean) {
          s.invariant_violations = "checkpointed run reported violations";
        }
        s.metrics.faults =
            static_cast<std::uint64_t>(v.at("faults").number);
        s.metrics.swap_outs =
            static_cast<std::uint64_t>(v.at("swap_outs").number);
        s.metrics.fault_ticks.add(v.at("fault_mean_pcycles").number);
        s.metrics.swap_out_ticks.add(v.at("swap_out_mean_pcycles").number);
        if (const util::JsonValue* h = v.find("health")) {
          s.health_verdict = h->string;
          if (const util::JsonValue* ht = v.find("health_trips")) {
            s.health_trips = static_cast<std::uint64_t>(ht->number);
          }
        }
        // The CSV row is rebuilt from the checkpoint's own numbers (JSON
        // doubles round-trip exactly through %.17g), not from the partial
        // summary, so resumed and fresh rows are formatted identically.
        auto d = [](double x) { return std::to_string(x); };
        auto u = [](double x) {
          return std::to_string(static_cast<std::uint64_t>(x));
        };
        resumed_csv[i] = {c.app,
                          machine::toString(c.cfg.system),
                          machine::toString(c.cfg.prefetch),
                          u(static_cast<double>(c.cfg.seed)),
                          d(spec.scale),
                          s.verified ? "1" : "0",
                          u(v.at("exec_pcycles").number),
                          u(v.at("faults").number),
                          u(v.at("swap_outs").number),
                          u(v.at("nacks").number),
                          d(v.at("swap_out_mean_pcycles").number),
                          d(v.at("fault_mean_pcycles").number),
                          d(v.at("write_combining").number),
                          d(v.at("ring_hit_rate").number),
                          u(v.at("nofree_pcycles").number),
                          u(v.at("transit_pcycles").number),
                          u(v.at("fault_pcycles").number),
                          u(v.at("tlb_pcycles").number),
                          u(v.at("other_pcycles").number)};
        resumed[i] = true;
        resumed_lines[i] = line;
        result.runs[i] = std::move(s);
      } catch (const std::exception&) {
        continue;  // torn line from a crash mid-write: rerun that cell
      }
    }
  }
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!resumed[i]) pending.push_back(i);
  }

  // Incremental checkpoint stream: completed cells append (flushed) so a
  // crash loses at most the in-flight runs; grid-order rewrite happens at
  // the end.
  std::ofstream ckpt;
  std::mutex ckpt_mutex;
  if (!spec.jsonl_path.empty()) {
    ckpt.open(spec.jsonl_path,
              spec.resume ? std::ios::out | std::ios::app : std::ios::out | std::ios::trunc);
    if (!ckpt) throw std::runtime_error("batch: cannot open " + spec.jsonl_path);
  }
  auto checkpoint = [&](std::size_t i, const RunSummary& s) {
    if (!ckpt.is_open()) return;
    const std::string line = cellLine(i, s);
    std::lock_guard<std::mutex> lk(ckpt_mutex);
    ckpt << line << "\n";
    ckpt.flush();
  };

  if (!spec.meta_dir.empty()) {
    std::filesystem::create_directories(spec.meta_dir);
  }
  if (!spec.sample_dir.empty()) {
    std::filesystem::create_directories(spec.sample_dir);
  }

  // Shared by the run_meta and time-series file names.
  auto cellStemOf = [&](std::size_t i) {
    return cellStem(i, grid[i].app, grid[i].cfg);
  };

  // Per-cell provenance: wall time and RSS are intentionally kept out of the
  // summaries (they would break the serial-vs-parallel byte-identity) and
  // land here instead. Peak RSS is the process high-water mark, so for a
  // parallel batch it is an upper bound on the cell's own footprint.
  auto writeCellMeta = [&](std::size_t i, const RunSummary& s, double wall_ms) {
    if (spec.meta_dir.empty()) return;
    obs::RunMeta meta;
    meta.app = grid[i].app;
    meta.system = machine::toString(grid[i].cfg.system);
    meta.prefetch = machine::toString(grid[i].cfg.prefetch);
    meta.seed = grid[i].cfg.seed;
    meta.scale = spec.scale;
    meta.config_hash = obs::fnv1aHash(machine::toIni(grid[i].cfg).serialize());
    meta.git_sha = obs::buildGitSha();
    meta.dirty = obs::buildGitDirty();
    meta.wall_ms = wall_ms;
    meta.peak_rss_bytes = util::peakRssBytes();
    meta.exec_pcycles = static_cast<std::uint64_t>(s.exec_time);
    meta.verified = s.verified;
    meta.health_verdict = s.health_verdict;
    meta.health_trips = s.health_trips;
    meta.fillHostFields();
    meta.write(spec.meta_dir + "/" + cellStemOf(i) + ".json");
  };

  // Largest RSS observed right after a cell finished (process-wide, so
  // parallel runs see the sum of concurrent workers).
  std::atomic<std::uint64_t> cell_rss_peak{0};

  auto runCell = [&](std::size_t i) {
    const auto w0 = std::chrono::steady_clock::now();
    ObsSinks sinks;
    // Per-cell telemetry: samples are taken at simulated ticks, so the
    // exported series are byte-identical at any jobs= setting.
    std::unique_ptr<obs::Sampler> sampler;
    if (spec.sample_interval > 0) {
      obs::SamplerConfig scfg;
      scfg.interval = spec.sample_interval;
      sampler = std::make_unique<obs::Sampler>(scfg, healthContextFor(grid[i].cfg));
      sinks.sampler = sampler.get();
    }
    RunSummary s = runApp(grid[i].cfg, grid[i].app, spec.scale, sinks);
    if (sampler != nullptr && !spec.sample_dir.empty()) {
      const std::string stem = spec.sample_dir + "/" + cellStemOf(i);
      sampler->writeJson(stem + ".timeseries.json");
      sampler->writeCsv(stem + ".timeseries.csv");
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  w0)
            .count();
    std::uint64_t rss = util::currentRssBytes();
    std::uint64_t seen = cell_rss_peak.load(std::memory_order_relaxed);
    while (rss > seen &&
           !cell_rss_peak.compare_exchange_weak(seen, rss, std::memory_order_relaxed)) {
    }
    writeCellMeta(i, s, wall_ms);
    return s;
  };

  util::ProgressMeter meter(pending.size(), progress);

  // Heartbeat: a low-duty background thread announcing done/running/ETA
  // and the process RSS while the grid executes.
  std::mutex hb_mutex;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  std::thread hb_thread;
  if (progress != nullptr && spec.heartbeat_secs > 0) {
    hb_thread = std::thread([&] {
      std::unique_lock<std::mutex> lk(hb_mutex);
      while (!hb_cv.wait_for(lk, std::chrono::seconds(spec.heartbeat_secs),
                             [&] { return hb_stop; })) {
        meter.heartbeat("rss=" + util::formatBytes(util::currentRssBytes()) +
                        " peak=" + util::formatBytes(util::peakRssBytes()) +
                        " cell_peak=" +
                        util::formatBytes(cell_rss_peak.load(std::memory_order_relaxed)));
      }
    });
  }
  auto stopHeartbeat = [&] {
    if (!hb_thread.joinable()) return;
    {
      std::lock_guard<std::mutex> lk(hb_mutex);
      hb_stop = true;
    }
    hb_cv.notify_all();
    hb_thread.join();
  };

  try {
    util::ParallelExecutor(spec.jobs).forEachIndex(pending.size(), [&](std::size_t k) {
      const std::size_t i = pending[k];
      meter.started();
      RunSummary s = runCell(i);
      meter.completed(grid[i].app + " on " + grid[i].cfg.describe(), s.ok());
      checkpoint(i, s);
      result.runs[i] = std::move(s);
    });
  } catch (...) {
    stopHeartbeat();
    throw;
  }
  stopHeartbeat();

  for (const RunSummary& s : result.runs) {
    result.all_ok = result.all_ok && s.ok();
  }

  // Outputs are emitted after the grid settles, in grid order, so the files
  // never depend on completion order. Resumed cells reuse their original
  // checkpoint line / reconstructed CSV row byte-for-byte.
  if (!spec.csv_path.empty()) {
    util::CsvWriter csv(spec.csv_path, summaryCsvHeader());
    for (std::size_t i = 0; i < result.runs.size(); ++i) {
      csv.addRow(resumed[i] ? resumed_csv[i]
                            : summaryCsvRow(result.runs[i], spec.scale));
    }
  }
  if (!spec.jsonl_path.empty()) {
    ckpt.close();
    const std::string tmp = spec.jsonl_path + ".tmp";
    {
      std::ofstream jsonl(tmp, std::ios::out | std::ios::trunc);
      if (!jsonl) throw std::runtime_error("batch: cannot open " + tmp);
      for (std::size_t i = 0; i < result.runs.size(); ++i) {
        jsonl << (resumed[i] ? resumed_lines[i]
                             : cellLine(i, result.runs[i]))
              << "\n";
      }
    }
    std::filesystem::rename(tmp, spec.jsonl_path);
  }
  return result;
}

}  // namespace nwc::apps
