// nwcstat: inspect and compare MetricsRegistry JSON exports
// (schema nwc-metrics-v1, written by nwcsim --metrics= or the benches'
// --metrics-dir=).
//
//   nwcstat show  run.metrics.json            # pretty-print every instrument
//   nwcstat show  run.metrics.json ring disk  # only these component prefixes
//   nwcstat diff  a.metrics.json b.metrics.json [--all] [--top=N]
//
// diff prints one line per instrument whose value changed between the two
// runs (plus instruments present on only one side); --all includes the
// unchanged ones too, and --top=N keeps only the N biggest movers ranked
// by absolute relative delta (added/removed instruments rank first).
// Histograms compare through their exported summary (count/p50/p90/p99).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/file.hpp"
#include "util/ini.hpp"
#include "util/json.hpp"

namespace {

using nwc::util::JsonValue;

struct Instrument {
  std::string kind;  // counter | gauge | histogram
  // Scalar slots; histograms are flattened to .count/.p50/.p90/.p99 by
  // flatten() below, so a populated Instrument always has one value.
  double value = 0.0;
};

using InstrumentMap = std::map<std::string, Instrument>;

// Loads a metrics export and flattens it to name -> scalar. Histogram
// instruments become four derived entries sharing the histogram kind.
InstrumentMap loadMetrics(const std::string& path) {
  const JsonValue doc = nwc::util::parseJson(nwc::util::readFile(path));
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->string != "nwc-metrics-v1") {
    throw std::runtime_error(path + ": not an nwc-metrics-v1 export");
  }
  InstrumentMap out;
  for (const auto& [name, inst] : doc.at("instruments").object) {
    const std::string kind = inst.at("kind").string;
    if (kind == "histogram") {
      for (const char* field : {"count", "p50", "p90", "p99"}) {
        out[name + "." + field] = {kind, inst.at(field).number};
      }
    } else {
      out[name] = {kind, inst.at("value").number};
    }
  }
  return out;
}

std::string component(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

std::string fmtValue(const Instrument& i) {
  char buf[64];
  if (i.kind == "gauge") {
    std::snprintf(buf, sizeof(buf), "%.6g", i.value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", i.value);
  }
  return buf;
}

int cmdShow(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "usage: nwcstat show <metrics.json> [component...]\n");
    return 2;
  }
  const InstrumentMap m = loadMetrics(args[0]);
  const std::set<std::string> only(args.begin() + 1, args.end());

  std::set<std::string> components;
  for (const auto& [name, inst] : m) components.insert(component(name));
  std::printf("%s: %zu instruments across %zu components\n", args[0].c_str(),
              m.size(), components.size());

  std::string current;
  for (const auto& [name, inst] : m) {
    const std::string comp = component(name);
    if (!only.empty() && only.count(comp) == 0) continue;
    if (comp != current) {
      std::printf("\n[%s]\n", comp.c_str());
      current = comp;
    }
    std::printf("  %-44s %14s  (%s)\n", name.c_str(), fmtValue(inst).c_str(),
                inst.kind.c_str());
  }
  return 0;
}

int cmdDiff(const std::vector<std::string>& args) {
  bool all = false;
  std::size_t top = 0;  // 0 = no limit, keep name order
  std::vector<std::string> paths;
  for (const auto& a : args) {
    if (a == "--all") {
      all = true;
    } else if (a.rfind("--top=", 0) == 0) {
      top = static_cast<std::size_t>(nwc::util::positiveFlag("--top", a.substr(6), true));
    } else {
      paths.push_back(a);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr, "usage: nwcstat diff <a.json> <b.json> [--all] [--top=N]\n");
    return 2;
  }
  const InstrumentMap ma = loadMetrics(paths[0]);
  const InstrumentMap mb = loadMetrics(paths[1]);

  std::set<std::string> names;
  for (const auto& [n, i] : ma) names.insert(n);
  for (const auto& [n, i] : mb) names.insert(n);

  // Collect first, print after: --top=N re-ranks the rows by |relative
  // delta| (added/removed instruments sort first — their ratio is infinite).
  struct Row {
    std::string name;
    std::string line;
    double magnitude = 0.0;  // |delta / a|, HUGE_VAL for added/removed
  };
  std::vector<Row> rows;
  std::size_t changed = 0, added = 0, removed = 0, same = 0;
  for (const std::string& name : names) {
    const auto ia = ma.find(name);
    const auto ib = mb.find(name);
    char line[160];
    if (ia == ma.end()) {
      ++added;
      std::snprintf(line, sizeof(line), "%-44s %14s %14s %14s", name.c_str(),
                    "-", fmtValue(ib->second).c_str(), "added");
      rows.push_back({name, line, HUGE_VAL});
      continue;
    }
    if (ib == mb.end()) {
      ++removed;
      std::snprintf(line, sizeof(line), "%-44s %14s %14s %14s", name.c_str(),
                    fmtValue(ia->second).c_str(), "-", "removed");
      rows.push_back({name, line, HUGE_VAL});
      continue;
    }
    const double d = ib->second.value - ia->second.value;
    if (d == 0.0) {
      ++same;
      if (all) {
        std::snprintf(line, sizeof(line), "%-44s %14s %14s %14s", name.c_str(),
                      fmtValue(ia->second).c_str(), fmtValue(ib->second).c_str(),
                      "=");
        rows.push_back({name, line, 0.0});
      }
      continue;
    }
    ++changed;
    char delta[64];
    double magnitude = HUGE_VAL;  // a == 0, b != 0: infinite relative change
    if (ia->second.value != 0.0) {
      magnitude = std::fabs(d / ia->second.value);
      std::snprintf(delta, sizeof(delta), "%+.6g (%+.1f%%)", d, 100.0 * d /
                    std::fabs(ia->second.value));
    } else {
      std::snprintf(delta, sizeof(delta), "%+.6g", d);
    }
    std::snprintf(line, sizeof(line), "%-44s %14s %14s %s", name.c_str(),
                  fmtValue(ia->second).c_str(), fmtValue(ib->second).c_str(), delta);
    rows.push_back({name, line, magnitude});
  }

  const std::size_t total_rows = rows.size();
  if (top > 0) {
    // Deterministic ranking: ties in |relative delta| break by instrument
    // name, so --top=N output is stable across runs and platforms.
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      if (a.magnitude != b.magnitude) return a.magnitude > b.magnitude;
      return a.name < b.name;
    });
    if (rows.size() > top) rows.resize(top);
  }
  std::printf("%-44s %14s %14s %14s\n", "instrument", "a", "b", "delta");
  for (const Row& r : rows) std::printf("%s\n", r.line.c_str());
  if (top > 0 && total_rows > rows.size()) {
    std::printf("\nshowing top %zu of %zu by |relative delta|\n", rows.size(),
                total_rows);
  }
  std::printf("\n%zu changed, %zu added, %zu removed, %zu unchanged\n", changed,
              added, removed, same);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* usage =
      "usage: nwcstat <command> ...\n"
      "  show <metrics.json> [component...]   pretty-print instruments\n"
      "  diff <a.json> <b.json> [--all] [--top=N]   compare two exports\n";
  if (argc < 2) {
    std::fputs(usage, stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "show") return cmdShow(args);
    if (cmd == "diff") return cmdDiff(args);
    if (cmd == "--help" || cmd == "-h") {
      std::fputs(usage, stdout);
      return 0;
    }
    std::fprintf(stderr, "nwcstat: unknown command %s\n%s", cmd.c_str(), usage);
    return 2;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "nwcstat: %s\n", ex.what());
    return 2;
  }
}
