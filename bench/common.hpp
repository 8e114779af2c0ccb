// Shared benchmark harness: CLI options, run helpers, table/CSV emission.
//
// Every bench accepts:
//   --scale=<f>   input scale factor (1.0 = the paper's Table 2 inputs)
//   --apps=a,b,c  restrict to a comma-separated subset of applications
//   --csv=<path>  where to mirror the rows as CSV (default: ./<bench>.csv)
//   --seed=<n>    machine seed
//   --jobs=<n>    simulation threads (0 = all cores, 1 = serial)
//   --metrics-dir=<dir>  export one MetricsRegistry JSON per simulation
//   --profile=<path>     profile the simulator itself: nwc-profile-v1 JSON
//                        report (+ .folded flamegraph stacks) at exit
//
// Parallelism model: a bench declares its full run grid up front with
// runAhead(), which executes the simulations concurrently and caches the
// summaries; the bench's original row-building loop then consumes them
// through run() in its historical order, so tables and CSV files are
// byte-identical to a serial run.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "machine/config.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace nwc::bench {

struct Options {
  double scale = 1.0;
  std::vector<std::string> apps;  // empty = all seven
  std::string csv_path;
  std::string metrics_dir;  // non-empty: per-run instrument JSON exports
  std::uint64_t seed = 0x5eed;
  unsigned jobs = 0;  // 0 = hardware concurrency, 1 = serial
  std::string profile_path;  // --profile=: host self-profile report at exit
};

/// Parses the common flags; unknown flags abort with a usage message.
Options parseArgs(int argc, char** argv, const std::string& bench_name,
                  double default_scale = 1.0,
                  const std::vector<std::string>& default_apps = {});

/// The application list the bench will run.
std::vector<std::string> appList(const Options& opt);

/// Builds a config for (system, prefetch) with the paper's best min-free
/// setting and the bench seed applied.
machine::MachineConfig configFor(machine::SystemKind sys, machine::Prefetch pf,
                                 const Options& opt);

/// One cell of a bench's run grid, for pre-execution via runAhead().
struct PlannedRun {
  machine::MachineConfig cfg;
  std::string app;
};

/// Pre-executes the planned simulations concurrently on opt.jobs threads
/// and caches their summaries (keyed by the full machine configuration,
/// application and scale). A later run() with the same key returns the
/// cached summary. With jobs <= 1 this is a no-op and run() executes each
/// simulation on demand, exactly as before.
void runAhead(const std::vector<PlannedRun>& plan, const Options& opt);

/// Runs one application (or returns its runAhead()-cached summary); prints
/// a one-line progress note to stderr.
apps::RunSummary run(const machine::MachineConfig& cfg, const std::string& app,
                     const Options& opt);

/// Prints the table to stdout and mirrors it to the options' CSV path.
void emit(const Options& opt, const util::AsciiTable& table,
          const std::vector<std::string>& headers,
          const std::vector<std::vector<std::string>>& rows);

}  // namespace nwc::bench
