#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "apps/batch.hpp"
#include "apps/registry.hpp"
#include "apps/workload.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "util/ini.hpp"
#include "util/parallel.hpp"

namespace nwc::bench {

namespace {

void printRunWarnings(const apps::RunSummary& s, const std::string& app) {
  if (!s.verified) {
    std::fprintf(stderr, "  WARNING: %s numerical verification FAILED\n", app.c_str());
  }
  if (!s.invariant_violations.empty()) {
    std::fprintf(stderr, "  WARNING: invariant violations:\n%s",
                 s.invariant_violations.c_str());
  }
}

// Runs plan cell `index`, exporting its instrument registry to
// opt.metrics_dir when requested.
apps::RunSummary simulate(std::size_t index, const PlannedRun& run, const Options& opt) {
  if (opt.metrics_dir.empty()) return apps::runApp(run.cfg, run.app, opt.scale);
  apps::ObsSinks sinks;
  obs::MetricsRegistry reg;
  sinks.registry = &reg;
  apps::RunSummary s = apps::runApp(run.cfg, run.app, opt.scale, sinks);
  reg.writeJson(opt.metrics_dir + "/" + apps::cellStem(index, run.app, run.cfg) + ".json");
  return s;
}

}  // namespace

Options parseArgs(int argc, char** argv, const std::string& bench_name,
                  double default_scale, const std::vector<std::string>& default_apps) {
  Options opt;
  opt.scale = default_scale;
  opt.apps = default_apps;
  opt.csv_path = bench_name + ".csv";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* prefix) { return a.substr(std::strlen(prefix)); };
    try {
      if (a.rfind("--scale=", 0) == 0) {
        opt.scale = util::positiveFlag("--scale", val("--scale="));
      } else if (a.rfind("--apps=", 0) == 0) {
        opt.apps = util::splitList(val("--apps="));
      } else if (a.rfind("--csv=", 0) == 0) {
        opt.csv_path = val("--csv=");
      } else if (a.rfind("--seed=", 0) == 0) {
        opt.seed = util::seedValue("--seed", val("--seed="));
      } else if (a.rfind("--jobs=", 0) == 0) {
        opt.jobs =
            static_cast<unsigned>(util::positiveFlag("--jobs", val("--jobs="), true, 4096));
      } else if (a.rfind("--metrics-dir=", 0) == 0) {
        opt.metrics_dir = val("--metrics-dir=");
      } else if (a.rfind("--profile=", 0) == 0) {
        opt.profile_path = val("--profile=");
        obs::prof::enableWithReportAtExit(opt.profile_path);
      } else if (a == "--help" || a == "-h") {
        std::printf(
            "usage: %s [--scale=F] [--apps=a,b] [--csv=PATH] [--seed=N] [--jobs=N] "
            "[--metrics-dir=DIR] [--profile=FILE]\n",
            bench_name.c_str());
        std::exit(0);
      } else {
        std::fprintf(stderr, "%s: unknown flag %s (see --help)\n", bench_name.c_str(),
                     a.c_str());
        std::exit(2);
      }
    } catch (const std::invalid_argument& ex) {
      std::fprintf(stderr, "%s: %s\n", bench_name.c_str(), ex.what());
      std::exit(2);
    }
  }
  if (opt.scale > 1.0) {
    std::fprintf(stderr, "%s: --scale must be in (0, 1]\n", bench_name.c_str());
    std::exit(2);
  }
  if (!opt.metrics_dir.empty()) {
    std::filesystem::create_directories(opt.metrics_dir);
  }
  return opt;
}

std::vector<std::string> appList(const Options& opt) {
  if (!opt.apps.empty()) {
    for (const auto& a : opt.apps) {
      if (const std::string err = apps::workloadSpecError(a); !err.empty()) {
        std::fprintf(stderr, "%s\n", err.c_str());
        std::exit(2);
      }
    }
    return opt.apps;
  }
  std::vector<std::string> all;
  for (const auto& a : apps::appRegistry()) all.push_back(a.name);
  return all;
}

machine::MachineConfig configFor(machine::SystemKind sys, machine::Prefetch pf,
                                 const Options& opt) {
  machine::MachineConfig cfg;
  cfg.withSystem(sys, pf);
  cfg.seed = opt.seed;
  return cfg;
}

std::vector<apps::RunSummary> runAll(const std::vector<PlannedRun>& plan,
                                     const Options& opt) {
  const util::ParallelExecutor exec(opt.jobs);
  std::fprintf(stderr, "  running %zu simulations on %zu threads\n", plan.size(),
               std::min<std::size_t>(exec.jobs(), plan.size()));
  std::vector<apps::RunSummary> out(plan.size());
  util::ProgressMeter meter(plan.size(), &std::cerr);
  exec.forEachIndex(plan.size(), [&](std::size_t i) {
    apps::RunSummary s = simulate(i, plan[i], opt);
    meter.completed(plan[i].app + " on " + plan[i].cfg.describe(), s.ok());
    out[i] = std::move(s);
  });
  for (std::size_t i = 0; i < plan.size(); ++i) printRunWarnings(out[i], plan[i].app);
  return out;
}

void emit(const Options& opt, const util::AsciiTable& table,
          const std::vector<std::string>& headers,
          const std::vector<std::vector<std::string>>& rows) {
  table.print(std::cout);
  if (opt.csv_path.empty()) return;
  try {
    util::CsvWriter csv(opt.csv_path, headers);
    for (const auto& r : rows) csv.addRow(r);
    std::printf("(csv: %s)\n", opt.csv_path.c_str());
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "csv write failed: %s\n", ex.what());
  }
}

}  // namespace nwc::bench
