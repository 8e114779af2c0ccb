// Shared benchmark harness: CLI options, run helpers, table/CSV emission.
//
// Every bench accepts:
//   --scale=<f>   input scale factor (1.0 = the paper's Table 2 inputs)
//   --apps=a,b,c  restrict to a comma-separated subset of applications
//   --csv=<path>  where to mirror the rows as CSV (default: ./<bench>.csv)
//   --seed=<n>    machine seed
//   --jobs=<n>    simulation threads, a whole number >= 1 (default: all cores)
//   --metrics-dir=<dir>  export one MetricsRegistry JSON per simulation,
//                        <dir>/cellNNNN_app_system_prefetch_sSEED.json
//                        (NNNN = the simulation's position in the plan)
//   --profile=<path>     profile the simulator itself: write an
//                        nwc-profile-v1 JSON report at exit
//
// Run model: a bench lists its whole grid as a plan, runAll() executes it
// (on --jobs threads, one ParallelExecutor loop at every job count) and
// returns the summaries in plan order, and the bench's row loop walks the
// same nesting again, reading each summary by position. Tables and CSV
// files are byte-identical at any job count.
#pragma once

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
  unsigned jobs = 0;  // 0 (flag omitted) = hardware concurrency
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

/// One cell of a bench's run grid.
struct PlannedRun {
  machine::MachineConfig cfg;
  std::string app;
};

/// Runs every planned simulation on opt.jobs threads and returns the
/// summaries in plan order. Progress and verification warnings go to
/// stderr.
std::vector<apps::RunSummary> runAll(const std::vector<PlannedRun>& plan,
                                     const Options& opt);

/// Prints the table to stdout and mirrors it to the options' CSV path.
void emit(const Options& opt, const util::AsciiTable& table,
          const std::vector<std::string>& headers,
          const std::vector<std::vector<std::string>>& rows);

}  // namespace nwc::bench
