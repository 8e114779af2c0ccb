// Grid execution: apps::runGrid runs a list of independent simulations
// (one (app, MachineConfig) cell each) and owns every per-cell concern —
// progress, heartbeat, run_meta, sampling and registry exports. The batch
// driver on top of it runs a grid of (app x system x prefetch x seed)
// configurations described by an INI file, collecting summaries as
// JSON-lines. Used by tools/nwcbatch, the benches and the examples;
// unit-testable directly.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "machine/config.hpp"
#include "util/ini.hpp"

namespace nwc::apps {

/// One simulation of a grid: an application (or workload spec) on a machine.
struct GridCell {
  std::string app;
  machine::MachineConfig cfg;
};

struct GridOptions {
  double scale = 1.0;
  unsigned jobs = 0;                 // worker threads; 0 = hardware concurrency
  std::ostream* progress = nullptr;  // progress and warnings; null = silent
  unsigned heartbeat_secs = 0;       // with progress: heartbeat cadence; 0 = off
  std::string meta_dir;     // non-empty: one run_meta.json per cell
  sim::Tick sample_interval = 0;  // pcycles between telemetry samples; 0 = off
  std::string sample_dir;   // non-empty (with sample_interval): one
                            // nwc-timeseries-v1 JSON per cell
  std::string metrics_dir;  // non-empty: one MetricsRegistry JSON per cell
};

/// Runs every cell on `opt.jobs` threads (one Machine each; a cell's result
/// depends only on its coordinates) and returns the summaries in cell
/// order, so every output built from them is byte-identical at any job
/// count. Per-cell files are named by cellStem(). With `opt.progress`: a
/// "running N simulations on T threads" line, one
/// "[done/total] <cell>: ok|FAIL (eta Ns)" line per completed cell,
/// heartbeat lines every `opt.heartbeat_secs`, and after the grid a warning
/// per cell that failed verification or its invariant check.
std::vector<RunSummary> runGrid(const std::vector<GridCell>& cells,
                                const GridOptions& opt);

struct BatchSpec {
  machine::MachineConfig base;  // [machine] section applied on top of defaults
  std::vector<std::string> apps;
  std::vector<machine::SystemKind> systems;
  std::vector<machine::Prefetch> prefetches;
  std::vector<std::uint64_t> seeds;
  bool best_min_free = true;  // re-derive min-free per (system, prefetch)
  std::string jsonl_path;     // empty = no JSON lines
  // scale, jobs, heartbeat_secs (default 2), meta_dir, sample_interval and
  // sample_dir come from [batch]; nwcbatch points `progress` at stderr.
  GridOptions grid;

  /// Parses the [machine] and [batch] sections. [batch] keys:
  ///   apps, systems, prefetch (comma lists), scale, seeds, jsonl,
  ///   meta_dir, best_min_free, jobs, heartbeat_secs, sample_interval,
  ///   sample_dir. Missing keys default to the
  ///   full matrix of the standard+nwcache systems over all seven
  ///   applications; any other [batch] key throws, naming it.
  static BatchSpec fromIni(const util::IniFile& ini);

  std::size_t runCount() const {
    return apps.size() * systems.size() * prefetches.size() * seeds.size();
  }

  /// The grid's cells — apps outermost, seeds innermost. Each cell's config
  /// (seed included) is a pure function of its coordinates.
  std::vector<GridCell> cells() const;
};

struct BatchResult {
  std::vector<RunSummary> runs;
  bool all_ok = true;
};

/// Runs the spec's cells through runGrid, then writes the JSONL (one
/// `{"cell":i,...}` line per cell) in grid order.
BatchResult runBatch(const BatchSpec& spec);

/// File-name stem of grid cell `index`, "cell0007_radix_nwcache_optimal_s1":
/// names runGrid's per-cell files.
/// Workload specs carry ':', ';', '=' and '/', so anything outside the
/// filesystem-safe set folds to '-'.
std::string cellStem(std::size_t index, const std::string& app,
                     const machine::MachineConfig& cfg);

/// One-line JSON rendering of a run summary: nwcsim --json prints it and
/// each JSONL line of a batch carries it.
std::string summaryJson(const RunSummary& s, double scale);

}  // namespace nwc::apps
