// nwcbatch: run an experiment grid described by an INI file.
//
//   nwcbatch [--jobs=N] [--meta-dir=DIR] [--heartbeat=SECS]
//            [--sample-interval=N] [--sample-dir=DIR] [--profile=FILE]
//            experiments.ini
//
//   # experiments.ini
//   [machine]
//   memory_per_node = 262144
//   [batch]
//   apps = sor, mg
//   systems = standard, nwcache, dcd
//   prefetch = optimal, naive
//   seeds = 1, 2, 3
//   scale = 1.0
//   jobs = 4          # worker threads; 0 (the default) = all cores
//   jsonl = grid.jsonl
//   meta_dir = meta   # one run_meta.json per grid cell
//   heartbeat_secs = 2  # heartbeat cadence on stderr; 0 disables
//
// Grid cells are independent simulations; apps::runGrid runs them
// concurrently on --jobs threads (default: all cores) with results — table
// and JSONL — byte-identical at any job count. The JSONL is written once,
// after the whole grid has run.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "apps/batch.hpp"
#include "obs/profiler.hpp"
#include "util/ini.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace nwc;
  std::string ini_path;
  std::string meta_dir;
  long jobs = -1;       // -1 = use the INI's jobs key (default auto)
  long heartbeat = -1;  // -1 = use the INI's heartbeat_secs key
  long sample_interval = -1;  // -1 = use the INI's sample_interval key
  std::string sample_dir;
  const char* usage =
      "usage: nwcbatch [--jobs=N] [--meta-dir=DIR] [--heartbeat=SECS] "
      "[--sample-interval=N] [--sample-dir=DIR] "
      "[--profile=FILE] <experiments.ini>\n";
  // A count flag whose documented off value is 0.
  auto countOrOff = [](const std::string& flag, const std::string& text, double max) {
    return text == "0" ? 0L
                       : static_cast<long>(
                             util::positiveFlag(flag + " (0 = off)", text, true, max));
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto val = [&](const char* prefix) { return a.substr(std::strlen(prefix)); };
      if (a.rfind("--jobs=", 0) == 0) {
        jobs = static_cast<long>(util::positiveFlag("--jobs", val("--jobs="), true, 4096));
      } else if (a.rfind("--meta-dir=", 0) == 0) {
        meta_dir = val("--meta-dir=");
      } else if (a.rfind("--heartbeat=", 0) == 0) {
        heartbeat = countOrOff("--heartbeat", val("--heartbeat="), 86400);
      } else if (a.rfind("--sample-interval=", 0) == 0) {
        sample_interval = countOrOff("--sample-interval", val("--sample-interval="), 1e15);
      } else if (a.rfind("--sample-dir=", 0) == 0) {
        sample_dir = val("--sample-dir=");
      } else if (a.rfind("--profile=", 0) == 0) {
        obs::prof::enableWithReportAtExit(val("--profile="));
      } else if (a == "--help" || a == "-h") {
        std::printf("%s"
                    "  --jobs=N          worker threads, a whole number >= 1 (default:\n"
                    "                    the INI's batch.jobs key, else all cores)\n"
                    "  --meta-dir=DIR    write one run_meta.json per grid cell\n"
                    "  --heartbeat=SECS  heartbeat cadence on stderr (0 = off)\n"
                    "  --sample-interval=N  pcycles between telemetry samples\n"
                    "                    (0 = off; overrides batch.sample_interval)\n"
                    "  --sample-dir=DIR  one nwc-timeseries-v1 JSON per cell\n"
                    "  --profile=FILE    profile the simulator itself: write an\n"
                    "                    nwc-profile-v1 JSON report at exit;\n"
                    "                    grid results are unchanged\n",
                    usage);
        return 0;
      } else if (a.rfind("--", 0) == 0) {
        std::fprintf(stderr, "nwcbatch: unknown flag %s\n%s", a.c_str(), usage);
        return 2;
      } else if (ini_path.empty()) {
        ini_path = a;
      } else {
        std::fputs(usage, stderr);
        return 2;
      }
    }
  } catch (const std::invalid_argument& ex) {
    std::fprintf(stderr, "nwcbatch: %s\n", ex.what());
    return 2;
  }
  if (ini_path.empty()) {
    std::fputs(usage, stderr);
    return 2;
  }
  try {
    auto spec = apps::BatchSpec::fromIni(util::IniFile::load(ini_path));
    apps::GridOptions& grid = spec.grid;
    if (jobs >= 0) grid.jobs = static_cast<unsigned>(jobs);
    if (!meta_dir.empty()) grid.meta_dir = meta_dir;
    if (heartbeat >= 0) grid.heartbeat_secs = static_cast<unsigned>(heartbeat);
    if (sample_interval >= 0) grid.sample_interval = static_cast<sim::Tick>(sample_interval);
    if (!sample_dir.empty()) grid.sample_dir = sample_dir;
    grid.progress = &std::cerr;
    if (!grid.sample_dir.empty() && grid.sample_interval == 0) {
      std::fprintf(stderr, "nwcbatch: --sample-dir requires --sample-interval > 0\n");
      return 2;
    }
    std::printf("running %zu configurations at scale %.2f on %u threads\n",
                spec.runCount(), grid.scale, util::resolveJobs(grid.jobs));
    const apps::BatchResult res = apps::runBatch(spec);

    util::AsciiTable t({"App", "System", "Prefetch", "Seed", "Exec (Mpc)",
                        "Faults", "Swap-outs", "OK"});
    for (const auto& s : res.runs) {
      t.addRow({s.app, machine::toString(s.cfg.system),
                machine::toString(s.cfg.prefetch), std::to_string(s.cfg.seed),
                util::AsciiTable::fmt(static_cast<double>(s.exec_time) / 1e6),
                std::to_string(s.metrics.faults), std::to_string(s.metrics.swap_outs),
                s.ok() ? "yes" : "NO"});
    }
    t.print(std::cout);
    if (!spec.jsonl_path.empty()) std::printf("jsonl: %s\n", spec.jsonl_path.c_str());
    if (!grid.meta_dir.empty()) std::printf("meta: %s\n", grid.meta_dir.c_str());
    if (!grid.sample_dir.empty()) std::printf("samples: %s\n", grid.sample_dir.c_str());
    return res.all_ok ? 0 : 1;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "nwcbatch: %s\n", ex.what());
    return 2;
  }
}
