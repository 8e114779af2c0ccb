// Shared benchmark harness: CLI options, grid options, table/CSV emission.
//
// Every bench accepts:
//   --scale=<f>   input scale factor in (0, 1] (1.0 = the paper's Table 2
//                 inputs)
//   --apps=a,b,c  restrict to a comma-separated subset of applications
//   --csv=<path>  where to mirror the rows as CSV (default: ./<bench>.csv)
//   --seed=<n>    machine seed
//   --jobs=<n>    simulation threads, a whole number >= 1 (default: all cores)
//   --metrics-dir=<dir>  export one MetricsRegistry JSON per simulation,
//                        <dir>/cellNNNN_app_system_prefetch_sSEED.json
//                        (NNNN = the simulation's position in the grid)
//   --profile=<path>     profile the simulator itself: write an
//                        nwc-profile-v1 JSON report at exit
//
// Run model: a bench lists its whole grid as apps::GridCell entries,
// apps::runGrid(cells, opt.grid()) runs it on --jobs threads and returns
// the summaries in cell order, and the bench's row loop walks the same
// nesting again, reading each summary by position. Progress and warnings go
// to stderr (no heartbeat). Tables and CSV files are byte-identical at any
// job count.
#pragma once

#include <string>
#include <vector>

#include "apps/batch.hpp"
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

  /// The runGrid options these flags select.
  apps::GridOptions grid() const;
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

/// Prints the table to stdout and mirrors it to the options' CSV path.
void emit(const Options& opt, const util::AsciiTable& table,
          const std::vector<std::string>& headers,
          const std::vector<std::vector<std::string>>& rows);

}  // namespace nwc::bench
