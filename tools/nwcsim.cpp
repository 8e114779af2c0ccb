// nwcsim: the command-line driver.
//
//   nwcsim --app=gauss [--scale=1.0] [--system=standard|nwcache|dcd]
//          [--prefetch=optimal|naive] [--config=machine.ini]
//          [--set machine.key=value ...] [--trace=trace.csv]
//          [--metrics=out.json] [--timeline=out.trace.json]
//          [--timeline-layers=ring,disk] [--timeline-cap=N]
//          [--jobs=N] [--json] [--dump-config]
//
// Runs one or more applications (--app accepts a comma list or "all") on
// one machine and reports the metrics the paper's evaluation uses, as a
// table or as JSON. Multiple applications are independent simulations and
// run concurrently on --jobs threads; output order stays deterministic.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/batch.hpp"
#include "apps/registry.hpp"
#include "apps/runner.hpp"
#include "apps/workload.hpp"
#include "machine/config_io.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/timeline.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace {

[[noreturn]] void usage(int code) {
  std::printf(
      "usage: nwcsim --app=NAME[,NAME...] [options]\n"
      "  --app=NAMES           em3d|fft|gauss|lu|mg|radix|sor, comma list,\n"
      "                        or \"all\" for the full suite. Also accepts\n"
      "                        workload specs: \"synth[:k=v;k=v...]\" (seeded\n"
      "                        synthetic block workload) and \"trace:PATH\"\n"
      "                        (recorded block trace) — see docs/WORKLOADS.md\n"
      "  --scale=F             input scale in (0,1], default 1.0\n"
      "  --system=KIND         standard|nwcache|dcd|remote (default standard)\n"
      "  --prefetch=POLICY     optimal|naive (default optimal)\n"
      "  --config=FILE         load a [machine] INI section\n"
      "  --set K=V             override one machine key (repeatable);\n"
      "                        --system/--prefetch pick the paper's best\n"
      "                        min_free_frames unless it is set here or in\n"
      "                        the --config file\n"
      "  --trace=FILE          dump the page-event trace as CSV (single app)\n"
      "  --trace-cap=N         keep only the newest N trace events (ring\n"
      "                        buffer; dropped events are counted)\n"
      "  --metrics=FILE        export the instrument catalog as JSON (plus a\n"
      "                        sibling .csv); single app\n"
      "  --timeline=FILE       export a Chrome trace-event JSON timeline\n"
      "                        (load in Perfetto); single app\n"
      "  --timeline-layers=L   comma list: fault,swap,ring,mesh,disk,vm,tlb\n"
      "                        or \"all\" (default all)\n"
      "  --timeline-cap=N      keep only the newest N timeline events\n"
      "  --sample=FILE         export periodic telemetry (tracks + health\n"
      "                        verdict) as nwc-timeseries-v1 JSON, plus a\n"
      "                        sibling .csv; single app\n"
      "  --sample-interval=N   pcycles between samples (default 50000)\n"
      "  --jobs=N              threads for multi-app runs (default: all\n"
      "                        cores)\n"
      "  --json                emit the run summary as JSON\n"
      "  --profile=FILE        profile the simulator itself: write an\n"
      "                        nwc-profile-v1 JSON report (+ FILE.folded\n"
      "                        flamegraph stacks) at exit; host tracks are\n"
      "                        merged into --timeline= exports. Simulated\n"
      "                        results are unchanged.\n"
      "  --dump-config         print the effective config as INI and exit\n");
  std::exit(code);
}

// The value of a numeric flag: a finite number > 0 with nothing after it;
// a count (`whole`) must also be an integer no larger than `max`.
double positiveFlag(const char* flag, const std::string& text, bool whole = false,
                    double max = 1e15) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v) || v <= 0.0 ||
      (whole && (v != std::floor(v) || v > max))) {
    throw std::invalid_argument(
        std::string(flag) + " must be " +
        (whole ? "a whole number in [1, " + std::to_string(std::llround(max)) + "]"
               : "a finite number > 0") +
        ", got '" + text + "'");
  }
  return v;
}

std::vector<std::string> parseAppList(const std::string& arg) {
  std::vector<std::string> out;
  if (arg == "all") {
    for (const auto& a : nwc::apps::appRegistry()) out.push_back(a.name);
    return out;
  }
  std::size_t pos = 0;
  while (pos <= arg.size()) {
    const auto comma = arg.find(',', pos);
    const std::string item =
        arg.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nwc;

  std::string app;
  double scale = 1.0;
  unsigned jobs = 0;
  std::string trace_path;
  std::size_t trace_cap = 0;
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
          scale = positiveFlag("--scale", val("--scale="));
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
        } else if (a.rfind("--trace=", 0) == 0) {
          trace_path = val("--trace=");
        } else if (a.rfind("--trace-cap=", 0) == 0) {
          trace_cap = static_cast<std::size_t>(
              positiveFlag("--trace-cap", val("--trace-cap="), true));
        } else if (a.rfind("--metrics=", 0) == 0) {
          metrics_path = val("--metrics=");
        } else if (a.rfind("--timeline=", 0) == 0) {
          timeline_path = val("--timeline=");
        } else if (a.rfind("--timeline-layers=", 0) == 0) {
          timeline_layers = obs::layerMaskFromString(val("--timeline-layers="));
        } else if (a.rfind("--timeline-cap=", 0) == 0) {
          timeline_cap = static_cast<std::size_t>(
              positiveFlag("--timeline-cap", val("--timeline-cap="), true));
        } else if (a.rfind("--sample=", 0) == 0) {
          sample_path = val("--sample=");
        } else if (a.rfind("--sample-interval=", 0) == 0) {
          sample_interval = static_cast<sim::Tick>(
              positiveFlag("--sample-interval", val("--sample-interval="), true));
        } else if (a.rfind("--jobs=", 0) == 0) {
          jobs = static_cast<unsigned>(positiveFlag("--jobs", val("--jobs="), true, 4096));
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
    const std::vector<std::string> app_names = parseAppList(app);
    if (app_names.empty()) usage(2);
    for (const auto& name : app_names) {
      if (const std::string err = apps::workloadSpecError(name); !err.empty()) {
        std::fprintf(stderr, "nwcsim: %s\n", err.c_str());
        return 2;
      }
    }
    if ((!trace_path.empty() || !metrics_path.empty() || !timeline_path.empty() ||
         !sample_path.empty()) &&
        app_names.size() > 1) {
      std::fprintf(stderr,
                   "nwcsim: --trace/--metrics/--timeline/--sample require a "
                   "single --app\n");
      return 2;
    }

    auto printSummary = [&](const apps::RunSummary& s) {
      const auto& m = s.metrics;
      if (as_json) {
        std::printf("%s\n", apps::summaryJson(s, scale).c_str());
        return;
      }
      std::printf("%s on %s, scale %.2f\n", s.app.c_str(), cfg.describe().c_str(),
                  scale);
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
    };

    if (app_names.size() == 1) {
      machine::TraceBuffer trace(trace_cap);
      obs::EventTimeline timeline(timeline_layers, timeline_cap);
      obs::MetricsRegistry registry;
      obs::SamplerConfig scfg;
      scfg.interval = sample_interval;
      obs::Sampler sampler(scfg, apps::healthContextFor(cfg));
      apps::ObsSinks sinks;
      sinks.trace = trace_path.empty() ? nullptr : &trace;
      sinks.timeline = timeline_path.empty() ? nullptr : &timeline;
      sinks.registry = metrics_path.empty() ? nullptr : &registry;
      sinks.sampler = sample_path.empty() ? nullptr : &sampler;
      const apps::RunSummary s = apps::runApp(cfg, app_names[0], scale, sinks);
      {
        obs::prof::Scope export_scope("export");
        if (!trace_path.empty()) trace.dumpCsv(trace_path);
        if (!metrics_path.empty()) {
          registry.writeJson(metrics_path);
          // Sibling flat CSV: out.json -> out.csv (or path + ".csv").
          std::string csv_path = metrics_path;
          if (csv_path.size() > 5 &&
              csv_path.rfind(".json") == csv_path.size() - 5) {
            csv_path.replace(csv_path.size() - 5, 5, ".csv");
          } else {
            csv_path += ".csv";
          }
          registry.writeCsv(csv_path);
        }
        if (!timeline_path.empty()) {
          // With profiling on, the host phase tree rides along as a second
          // process in the same Perfetto view; without it the export is
          // byte-identical to the single-argument form.
          timeline.writeChromeTrace(timeline_path, cfg.pcycle_ns,
                                    obs::prof::enabled()
                                        ? obs::prof::chromeTraceEvents()
                                        : std::vector<std::string>{});
        }
        if (!sample_path.empty()) {
          sampler.writeJson(sample_path);
          std::string csv_path = sample_path;
          if (csv_path.size() > 5 &&
              csv_path.rfind(".json") == csv_path.size() - 5) {
            csv_path.replace(csv_path.size() - 5, 5, ".csv");
          } else {
            csv_path += ".csv";
          }
          sampler.writeCsv(csv_path);
        }
      }
      printSummary(s);
      if (!as_json && !trace_path.empty()) {
        std::printf("trace written to %s (%zu events, %llu dropped)\n",
                    trace_path.c_str(), trace.size(),
                    static_cast<unsigned long long>(trace.dropped()));
      }
      if (!as_json && !metrics_path.empty()) {
        std::printf("metrics written to %s (%zu instruments)\n", metrics_path.c_str(),
                    registry.size());
      }
      if (!as_json && !timeline_path.empty()) {
        // Drops broken down by the evicted event's layer, so users know which
        // --timeline-layers= to trim when the ring buffer overflows.
        std::string drops;
        for (unsigned l = 0; l < static_cast<unsigned>(obs::Layer::kNumLayers);
             ++l) {
          const auto layer = static_cast<obs::Layer>(l);
          const std::uint64_t n = timeline.droppedByLayer(layer);
          if (n == 0) continue;
          drops += drops.empty() ? ": " : ", ";
          drops += std::string(obs::toString(layer)) + "=" + std::to_string(n);
        }
        std::printf("timeline written to %s (%zu events, %llu dropped%s)\n",
                    timeline_path.c_str(), timeline.size(),
                    static_cast<unsigned long long>(timeline.dropped()),
                    drops.c_str());
      }
      if (!as_json && !sample_path.empty()) {
        std::printf("samples written to %s (%zu samples, health: %s)\n",
                    sample_path.c_str(), sampler.samples(),
                    sampler.health().verdict());
      }
      return s.ok() ? 0 : 1;
    }

    // Several applications: independent machines, run concurrently, printed
    // in the order they were named.
    std::vector<apps::RunSummary> summaries(app_names.size());
    util::ProgressMeter meter(app_names.size(), &std::cerr);
    util::ParallelExecutor exec(jobs);
    exec.forEachIndex(app_names.size(), [&](std::size_t i) {
      apps::RunSummary s = apps::runApp(cfg, app_names[i], scale);
      meter.completed(app_names[i], s.ok());
      summaries[i] = std::move(s);
    });
    bool all_ok = true;
    for (std::size_t i = 0; i < summaries.size(); ++i) {
      if (!as_json && i > 0) std::printf("\n");
      printSummary(summaries[i]);
      all_ok = all_ok && summaries[i].ok();
    }
    return all_ok ? 0 : 1;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "nwcsim: %s\n", ex.what());
    return 2;
  }
}
