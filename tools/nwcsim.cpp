// nwcsim: the command-line driver.
//
//   nwcsim --app=gauss [--scale=1.0] [--system=standard|nwcache|dcd]
//          [--prefetch=optimal|naive|hinted] [--config=machine.ini]
//          [--set machine.key=value ...] [--metrics=out.json]
//          [--timeline=out.trace.json] [--timeline-layers=ring,disk]
//          [--timeline-cap=N] [--sample=out.timeseries.json]
//          [--sample-interval=N] [--json] [--profile=FILE] [--dump-config]
//
// Runs one application or workload on one machine and reports the metrics
// the paper's evaluation uses, as a table or as JSON. A grid of several
// applications or machines is an nwcbatch run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/batch.hpp"
#include "apps/runner.hpp"
#include "apps/workload.hpp"
#include "machine/config_io.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/timeline.hpp"
#include "util/ini.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

[[noreturn]] void usage(int code) {
  std::printf(
      "usage: nwcsim --app=NAME [options]\n"
      "  --app=NAME            em3d|fft|gauss|lu|mg|radix|sor, or a workload\n"
      "                        spec: \"synth[:k=v;k=v...]\" (seeded synthetic\n"
      "                        block workload) or \"trace:PATH\" (recorded\n"
      "                        block trace) — see docs/WORKLOADS.md. One run;\n"
      "                        several apps or machines are an nwcbatch grid\n"
      "  --scale=F             input scale in (0,1], default 1.0\n"
      "  --system=KIND         standard|nwcache|dcd (default standard)\n"
      "  --prefetch=POLICY     optimal|naive|hinted (default optimal;\n"
      "                        hinted reads hint_accuracy)\n"
      "  --config=FILE         load a [machine] INI section\n"
      "  --set K=V             override one machine key (repeatable);\n"
      "                        --system/--prefetch pick the paper's best\n"
      "                        min_free_frames unless it is set here or in\n"
      "                        the --config file\n"
      "  --metrics=FILE        export the instrument catalog as JSON\n"
      "  --timeline=FILE       export a Chrome trace-event JSON timeline of\n"
      "                        every page event (load in Perfetto); with\n"
      "                        --sample= it also carries the occupancy\n"
      "                        counter tracks\n"
      "  --timeline-layers=L   comma list: fault,swap,ring,mesh,disk,vm,tlb,\n"
      "                        health or \"all\" (default all)\n"
      "  --timeline-cap=N      keep only the newest N timeline events\n"
      "  --sample=FILE         export periodic telemetry (tracks + health\n"
      "                        verdict) as nwc-timeseries-v1 JSON\n"
      "  --sample-interval=N   pcycles between samples (default 50000)\n"
      "  --json                emit the run summary as JSON\n"
      "  --profile=FILE        profile the simulator itself: write an\n"
      "                        nwc-profile-v1 JSON report at exit\n"
      "                        (exit 2 if it cannot be written).\n"
      "                        Simulated results are unchanged.\n"
      "  --dump-config         print the effective config as INI and exit\n");
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nwc;

  std::string app;
  double scale = 1.0;
  std::string metrics_path;
  std::string timeline_path;
  unsigned timeline_layers = nwc::obs::kAllLayers;
  std::size_t timeline_cap = 0;
  std::string sample_path;
  sim::Tick sample_interval = 50'000;
  bool as_json = false;
  bool dump_config = false;
  bool minfree_overridden = false;
  bool system_set = false, prefetch_set = false;

  machine::MachineConfig cfg;

  // --profile= is pre-scanned so the profiler is live before any other flag
  // does work (config files parsed under --config= count as "config-parse").
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--profile=", 0) == 0) {
      obs::prof::enableWithReportAtExit(a.substr(std::strlen("--profile=")));
    }
  }

  std::vector<std::string> overrides;
  {
    obs::prof::Scope parse_scope("config-parse");
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto val = [&](const char* prefix) { return a.substr(std::strlen(prefix)); };
      try {
        if (a.rfind("--app=", 0) == 0) {
          app = val("--app=");
        } else if (a.rfind("--scale=", 0) == 0) {
          scale = util::positiveFlag("--scale", val("--scale="), false, 1.0);
        } else if (a.rfind("--system=", 0) == 0) {
          cfg.system = machine::systemKindFromString(val("--system="));
          system_set = true;
        } else if (a.rfind("--prefetch=", 0) == 0) {
          cfg.prefetch = machine::prefetchFromString(val("--prefetch="));
          prefetch_set = true;
        } else if (a.rfind("--config=", 0) == 0) {
          const util::IniFile ini = util::IniFile::load(val("--config="));
          machine::applyIni(ini, cfg);
          // The file's reserve wins over the --system/--prefetch best.
          if (ini.get("machine.min_free_frames")) minfree_overridden = true;
        } else if (a.rfind("--set", 0) == 0) {
          if (a == "--set" && i + 1 < argc) {
            overrides.push_back(argv[++i]);
          } else if (a.rfind("--set=", 0) == 0) {
            overrides.push_back(val("--set="));
          } else {
            usage(2);
          }
        } else if (a.rfind("--metrics=", 0) == 0) {
          metrics_path = val("--metrics=");
        } else if (a.rfind("--timeline=", 0) == 0) {
          timeline_path = val("--timeline=");
        } else if (a.rfind("--timeline-layers=", 0) == 0) {
          timeline_layers = obs::layerMaskFromString(val("--timeline-layers="));
        } else if (a.rfind("--timeline-cap=", 0) == 0) {
          timeline_cap = static_cast<std::size_t>(
              util::positiveFlag("--timeline-cap", val("--timeline-cap="), true));
        } else if (a.rfind("--sample=", 0) == 0) {
          sample_path = val("--sample=");
        } else if (a.rfind("--sample-interval=", 0) == 0) {
          sample_interval = static_cast<sim::Tick>(
              util::positiveFlag("--sample-interval", val("--sample-interval="), true));
        } else if (a == "--json") {
          as_json = true;
        } else if (a.rfind("--profile=", 0) == 0) {
          // Handled by the pre-scan above.
        } else if (a == "--dump-config") {
          dump_config = true;
        } else if (a == "--help" || a == "-h") {
          usage(0);
        } else {
          std::fprintf(stderr, "nwcsim: unknown flag %s\n", a.c_str());
          usage(2);
        }
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "nwcsim: %s\n", ex.what());
        return 2;
      }
    }
  }

  try {
    {
      obs::prof::Scope parse_scope("config-parse");
      if (!overrides.empty()) {
        util::IniFile ini;
        for (const auto& kv : overrides) {
          const auto eq = kv.find('=');
          if (eq == std::string::npos) usage(2);
          std::string key = util::trim(kv.substr(0, eq));
          if (key.rfind("machine.", 0) != 0) key = "machine." + key;
          ini.set(key, util::trim(kv.substr(eq + 1)));
        }
        machine::applyIni(ini, cfg);
        if (ini.get("machine.min_free_frames")) minfree_overridden = true;
      }
      if ((system_set || prefetch_set) && !minfree_overridden) {
        cfg.min_free_frames =
            machine::MachineConfig::bestMinFree(cfg.system, cfg.prefetch);
      }
      cfg.validate();
    }

    if (dump_config) {
      std::fputs(machine::toIni(cfg).serialize().c_str(), stdout);
      return 0;
    }
    if (app.empty()) usage(2);
    if (const std::string err = apps::workloadSpecError(app); !err.empty()) {
      std::fprintf(stderr, "nwcsim: %s\n", err.c_str());
      return 2;
    }

    obs::EventTimeline timeline(timeline_layers, timeline_cap);
    obs::MetricsRegistry registry;
    obs::SamplerConfig scfg;
    scfg.interval = sample_interval;
    obs::Sampler sampler(scfg, apps::healthContextFor(cfg));
    apps::ObsSinks sinks;
    sinks.timeline = timeline_path.empty() ? nullptr : &timeline;
    sinks.registry = metrics_path.empty() ? nullptr : &registry;
    sinks.sampler = sample_path.empty() ? nullptr : &sampler;
    const apps::RunSummary s = apps::runApp(cfg, app, scale, sinks);
    {
      obs::prof::Scope export_scope("export");
      if (!metrics_path.empty()) registry.writeJson(metrics_path);
      if (!timeline_path.empty()) {
        std::ofstream out(timeline_path, std::ios::binary);
        if (!out) throw std::runtime_error("timeline: cannot open " + timeline_path);
        timeline.writeChromeTrace(out, cfg.pcycle_ns);
        if (!out.flush()) {
          throw std::runtime_error("timeline: write failed for " + timeline_path);
        }
      }
      if (!sample_path.empty()) sampler.writeJson(sample_path);
    }
    if (as_json) {
      std::printf("%s\n", apps::summaryJson(s, scale).c_str());
      return s.ok() ? 0 : 1;
    }

    const auto& m = s.metrics;
    std::printf("%s on %s, scale %.2f\n", s.app.c_str(), cfg.describe().c_str(), scale);
    util::AsciiTable t({"Metric", "Value"});
    auto row = [&](const char* k, const std::string& v) { t.addRow({k, v}); };
    row("verified", s.verified ? "yes" : "NO");
    row("invariants", s.invariant_violations.empty() ? "ok" : "VIOLATED");
    if (!s.health_verdict.empty()) {
      row("health", s.health_verdict +
                        (s.health_trips > 0
                             ? " (" + std::to_string(s.health_trips) + " trips)"
                             : ""));
    }
    row("execution (Mpcycles)", util::AsciiTable::fmt(s.exec_time / 1e6, 1));
    row("page faults", std::to_string(m.faults));
    row("swap-outs", std::to_string(m.swap_outs));
    row("clean evictions", std::to_string(m.clean_evictions));
    row("NACKs", std::to_string(m.nacks));
    row("avg swap-out (Kpcycles)", util::AsciiTable::fmt(m.swap_out_ticks.mean() / 1e3));
    row("avg fault (Kpcycles)", util::AsciiTable::fmt(m.fault_ticks.mean() / 1e3));
    row("write combining", util::AsciiTable::fmt(m.write_combining.mean(), 2));
    row("ring hit rate", util::AsciiTable::fmtPct(m.ring_read_hits.rate()));
    row("NoFree (Mpcycles)", util::AsciiTable::fmt(m.totalNoFree() / 1e6));
    row("Transit (Mpcycles)", util::AsciiTable::fmt(m.totalTransit() / 1e6));
    row("Fault (Mpcycles)", util::AsciiTable::fmt(m.totalFault() / 1e6));
    row("TLB (Mpcycles)", util::AsciiTable::fmt(m.totalTlb() / 1e6));
    row("Other (Mpcycles)", util::AsciiTable::fmt(m.totalOther() / 1e6));
    t.print(std::cout);
    if (!metrics_path.empty()) {
      std::printf("metrics written to %s (%zu instruments)\n", metrics_path.c_str(),
                  registry.size());
    }
    if (!timeline_path.empty()) {
      // Drops broken down by the evicted event's layer, so users know which
      // --timeline-layers= to trim when the ring buffer overflows.
      std::string drops;
      for (unsigned l = 0; l < static_cast<unsigned>(obs::Layer::kNumLayers); ++l) {
        const auto layer = static_cast<obs::Layer>(l);
        const std::uint64_t n = timeline.droppedByLayer(layer);
        if (n == 0) continue;
        drops += drops.empty() ? ": " : ", ";
        drops += std::string(obs::toString(layer)) + "=" + std::to_string(n);
      }
      std::printf("timeline written to %s (%zu events, %llu dropped%s)\n",
                  timeline_path.c_str(), timeline.size(),
                  static_cast<unsigned long long>(timeline.dropped()), drops.c_str());
    }
    if (!sample_path.empty()) {
      std::printf("samples written to %s (%zu samples, health: %s)\n",
                  sample_path.c_str(), sampler.samples(), sampler.health().verdict());
    }
    return s.ok() ? 0 : 1;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "nwcsim: %s\n", ex.what());
    return 2;
  }
}
