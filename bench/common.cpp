#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>

#include "apps/registry.hpp"
#include "apps/workload.hpp"
#include "obs/profiler.hpp"
#include "util/ini.hpp"

namespace nwc::bench {

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
        opt.scale = util::positiveFlag("--scale", val("--scale="), false, 1.0);
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

apps::GridOptions Options::grid() const {
  apps::GridOptions g;
  g.scale = scale;
  g.jobs = jobs;
  g.progress = &std::cerr;
  g.metrics_dir = metrics_dir;
  return g;
}

void emit(const Options& opt, const util::AsciiTable& table,
          const std::vector<std::string>& headers,
          const std::vector<std::vector<std::string>>& rows) {
  table.print(std::cout);
  if (!opt.csv_path.empty()) writeCsv(opt.csv_path, headers, rows);
}

void writeCsv(const std::string& path, const std::vector<std::string>& headers,
              const std::vector<std::vector<std::string>>& rows) {
  try {
    util::CsvWriter csv(path, headers);
    for (const auto& r : rows) csv.addRow(r);
    csv.close();
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    std::exit(2);
  }
  std::printf("(csv: %s)\n", path.c_str());
}

}  // namespace nwc::bench
