// nwcreport: render a run's fault-latency attribution as CSV and HTML.
//
//   nwcreport --metrics=run.metrics.json [--sample=run.timeseries.json]
//             [--csv=attr.csv] [--html=report.html] [--title=NAME]
//
// Reads the nwc-metrics-v1 JSON written by `nwcsim --metrics=` and distills
// the `attr.*` instruments (the stage-tagged critical-path accountant, see
// docs/OBSERVABILITY.md) into:
//
//   --csv   a long-format table `op,outcome,stage,metric,value` — one row
//           per attribution instrument, stable order, diff-friendly (CI
//           keeps a golden copy of it).
//   --html  a self-contained page (inline CSS + SVG, no JavaScript): the
//           Fig 3/4-style stacked CPU-stall bar, per-outcome stage
//           composition bars and a queue-vs-service waterfall per (op,
//           outcome). With --sample= (the nwc-timeseries-v1 export of
//           `nwcsim --sample=`) the page gains per-track sparkline charts
//           (ring.staged_pages among them) with health onsets marked, plus
//           the health-detector verdict table.
//
// The tool is read-only over the artifact files; it never touches the
// simulator, so it can be pointed at archived runs.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/file.hpp"
#include "util/json.hpp"

namespace {

using nwc::util::JsonValue;
using nwc::util::parseJson;

std::string htmlEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmtNum(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15 && v > -1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string fmtPct(double part, double total) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", total > 0 ? 100.0 * part / total : 0.0);
  return buf;
}

std::vector<std::string> splitDots(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const auto dot = s.find('.', pos);
    out.push_back(s.substr(pos, dot == std::string::npos ? dot : dot - pos));
    if (dot == std::string::npos) break;
    pos = dot + 1;
  }
  return out;
}

// Canonical stage order (matches obs::AttrStage) so bars and waterfalls
// read the same way the critical path executes.
const char* const kStageOrder[] = {"mesh",      "mem_bus",       "io_bus",
                                   "ring",      "disk_queue",    "disk_seek",
                                   "disk_transfer", "disk_ctrl", "tlb_shootdown"};

const char* stageColor(const std::string& stage) {
  if (stage == "mesh") return "#4e79a7";
  if (stage == "mem_bus") return "#a0cbe8";
  if (stage == "io_bus") return "#f28e2b";
  if (stage == "ring") return "#59a14f";
  if (stage == "disk_queue") return "#e15759";
  if (stage == "disk_seek") return "#b07aa1";
  if (stage == "disk_transfer") return "#9c755f";
  if (stage == "disk_ctrl") return "#edc948";
  if (stage == "tlb_shootdown") return "#76b7b2";
  return "#bab0ac";
}

int stageRank(const std::string& stage) {
  for (int i = 0; i < static_cast<int>(std::size(kStageOrder)); ++i) {
    if (stage == kStageOrder[i]) return i;
  }
  return static_cast<int>(std::size(kStageOrder));
}

bool isStageName(const std::string& s) {
  return stageRank(s) < static_cast<int>(std::size(kStageOrder));
}

struct StageTicks {
  double queue = 0;
  double service = 0;
  double total() const { return queue + service; }
};

struct AttrGroup {
  double count = 0;
  double end_to_end = 0;
  double p50 = 0, p90 = 0, p99 = 0;
  std::map<std::string, StageTicks> stages;
};

struct AttrData {
  double records = 0;
  double violations = 0;
  bool has_totals = false;
  // (op, outcome) -> group; map keeps deterministic order.
  std::map<std::pair<std::string, std::string>, AttrGroup> groups;
};

struct CsvRow {
  std::string op, outcome, stage, metric;
  double value = 0;
};

struct Report {
  AttrData attr;
  std::vector<CsvRow> rows;           // long-format rows, source order
  std::map<std::string, double> cpu;  // cpu.stall.<bucket>_ticks
};

Report digestMetrics(const JsonValue& doc) {
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->string != "nwc-metrics-v1") {
    throw std::runtime_error("not an nwc-metrics-v1 file");
  }
  Report rep;
  const JsonValue& instruments = doc.at("instruments");
  for (const auto& [name, inst] : instruments.object) {
    if (name.rfind("cpu.stall.", 0) == 0) {
      rep.cpu[name.substr(std::strlen("cpu.stall."))] = inst.at("value").number;
      continue;
    }
    if (name.rfind("attr.", 0) != 0) continue;
    const std::vector<std::string> tok = splitDots(name);
    const JsonValue* kind = inst.find("kind");
    const bool is_hist = kind != nullptr && kind->string == "histogram";

    // Long CSV: one row per scalar, histograms expand to summary rows.
    auto addRow = [&rep](std::string op, std::string outcome, std::string stage,
                         std::string metric, double value) {
      rep.rows.push_back({std::move(op), std::move(outcome), std::move(stage),
                          std::move(metric), value});
    };
    const std::string op = tok.size() > 2 ? tok[1] : "";
    const std::string outcome = tok.size() > 3 ? tok[2] : "";
    const std::string stage = tok.size() > 4 && isStageName(tok[3]) ? tok[3] : "";
    const std::string metric = tok.back();
    if (is_hist) {
      addRow(op.empty() ? "total" : op, outcome, stage, metric + ".count",
             inst.at("count").number);
      addRow(op.empty() ? "total" : op, outcome, stage, metric + ".p50",
             inst.at("p50").number);
      addRow(op.empty() ? "total" : op, outcome, stage, metric + ".p90",
             inst.at("p90").number);
      addRow(op.empty() ? "total" : op, outcome, stage, metric + ".p99",
             inst.at("p99").number);
    } else {
      addRow(op.empty() ? "total" : op, outcome, stage, metric,
             inst.at("value").number);
    }

    // Structured digest for the HTML views.
    if (tok.size() == 2) {
      if (tok[1] == "records") rep.attr.records = inst.at("value").number;
      if (tok[1] == "conservation_violations") {
        rep.attr.violations = inst.at("value").number;
      }
      rep.attr.has_totals = true;
      continue;
    }
    if (tok.size() < 4) continue;
    AttrGroup& g = rep.attr.groups[{tok[1], tok[2]}];
    if (tok.size() == 4) {
      if (tok[3] == "count") g.count = inst.at("value").number;
      if (tok[3] == "end_to_end_ticks") g.end_to_end = inst.at("value").number;
      if (tok[3] == "latency_pcycles" && is_hist) {
        g.p50 = inst.at("p50").number;
        g.p90 = inst.at("p90").number;
        g.p99 = inst.at("p99").number;
      }
    } else if (tok.size() == 5 && isStageName(tok[3])) {
      StageTicks& st = g.stages[tok[3]];
      if (tok[4] == "queue_ticks") st.queue = inst.at("value").number;
      if (tok[4] == "service_ticks") st.service = inst.at("value").number;
    }
  }
  return rep;
}

void writeCsv(const Report& rep, const std::string& path) {
  std::ostringstream out;
  out << "op,outcome,stage,metric,value\n";
  for (const CsvRow& r : rep.rows) {
    out << r.op << ',' << r.outcome << ',' << r.stage << ',' << r.metric << ','
        << fmtNum(r.value) << '\n';
  }
  nwc::util::writeFile(path, out.str());
}

// --- HTML rendering --------------------------------------------------------

struct Segment {
  std::string label;
  double value = 0;
  std::string color;
};

std::string svgStackedBar(const std::vector<Segment>& segs, int width, int height) {
  double total = 0;
  for (const Segment& s : segs) total += s.value;
  std::ostringstream svg;
  svg << "<svg width=\"" << width << "\" height=\"" << height
      << "\" role=\"img\">";
  double x = 0;
  for (const Segment& s : segs) {
    if (s.value <= 0 || total <= 0) continue;
    const double w = width * s.value / total;
    svg << "<rect x=\"" << fmtNum(x) << "\" y=\"0\" width=\"" << fmtNum(w)
        << "\" height=\"" << height << "\" fill=\"" << s.color << "\">"
        << "<title>" << htmlEscape(s.label) << ": " << fmtNum(s.value) << " ("
        << fmtPct(s.value, total) << ")</title></rect>";
    x += w;
  }
  svg << "</svg>";
  return svg.str();
}

std::string legend(const std::vector<Segment>& segs) {
  double total = 0;
  for (const Segment& s : segs) total += s.value;
  std::ostringstream out;
  out << "<div class=\"legend\">";
  for (const Segment& s : segs) {
    if (s.value <= 0) continue;
    out << "<span><i style=\"background:" << s.color << "\"></i>"
        << htmlEscape(s.label) << " " << fmtPct(s.value, total) << "</span>";
  }
  out << "</div>";
  return out.str();
}

std::string waterfallTable(const AttrGroup& g) {
  std::vector<std::pair<std::string, StageTicks>> stages(g.stages.begin(),
                                                         g.stages.end());
  std::sort(stages.begin(), stages.end(), [](const auto& a, const auto& b) {
    return stageRank(a.first) < stageRank(b.first);
  });
  double attributed = 0;
  for (const auto& [_, st] : stages) attributed += st.total();
  const double scale = attributed > 0 ? 360.0 / attributed : 0;
  std::ostringstream out;
  out << "<table class=\"wf\"><tr><th>stage</th><th>queue</th><th>service</th>"
         "<th>share</th><th></th></tr>";
  double x = 0;
  for (const auto& [name, st] : stages) {
    if (st.total() <= 0) continue;
    const double qw = st.queue * scale;
    const double sw = st.service * scale;
    out << "<tr><td>" << htmlEscape(name) << "</td><td class=\"n\">"
        << fmtNum(st.queue) << "</td><td class=\"n\">" << fmtNum(st.service)
        << "</td><td class=\"n\">" << fmtPct(st.total(), attributed) << "</td>"
        << "<td><svg width=\"420\" height=\"14\">"
        << "<rect x=\"" << fmtNum(x) << "\" y=\"2\" width=\"" << fmtNum(qw)
        << "\" height=\"10\" fill=\"" << stageColor(name)
        << "\" opacity=\"0.45\"><title>queue wait</title></rect>"
        << "<rect x=\"" << fmtNum(x + qw) << "\" y=\"2\" width=\"" << fmtNum(sw)
        << "\" height=\"10\" fill=\"" << stageColor(name)
        << "\"><title>service</title></rect></svg></td></tr>";
    x += qw + sw;
  }
  out << "</table>";
  return out.str();
}

// One track of the nwc-timeseries-v1 export as an SVG polyline; health
// onsets render as red vertical markers, clears as grey ones.
std::string trackChart(const JsonValue& track,
                       const std::vector<std::pair<double, bool>>& marks,
                       int width, int height) {
  const JsonValue& pts = track.at("points");
  if (pts.array.size() < 2) return "<p class=\"muted\">too few samples</p>";
  const double tmin = pts.array.front().array.at(0).number;
  double tmax = pts.array.back().array.at(0).number;
  if (tmax <= tmin) tmax = tmin + 1;
  double vmax = track.at("max").number;
  if (vmax <= 0) vmax = 1;
  const std::size_t stride = std::max<std::size_t>(1, pts.array.size() / 2000);
  std::ostringstream svg;
  svg << "<svg width=\"" << width << "\" height=\"" << height << "\">";
  for (const auto& [t, onset] : marks) {
    if (t < tmin || t > tmax) continue;
    const double px = (t - tmin) / (tmax - tmin) * (width - 2) + 1;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "<line x1=\"%.1f\" y1=\"0\" x2=\"%.1f\" y2=\"%d\" "
                  "stroke=\"%s\" stroke-width=\"1\"/>",
                  px, px, height, onset ? "#b00020" : "#bbbbbb");
    svg << buf;
  }
  svg << "<polyline fill=\"none\" stroke=\"#4e79a7\" stroke-width=\"1.2\" "
         "points=\"";
  for (std::size_t i = 0; i < pts.array.size(); i += stride) {
    const double t = pts.array[i].array.at(0).number;
    const double v = pts.array[i].array.at(1).number;
    const double px = (t - tmin) / (tmax - tmin) * (width - 2) + 1;
    const double py = height - 2 - v / vmax * (height - 4);
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.1f,%.1f ", px, py);
    svg << buf;
  }
  svg << "\"/></svg>";
  return svg.str();
}

std::string opHeading(const std::string& op) {
  if (op == "fault") return "Page faults";
  if (op == "swap") return "Swap-outs";
  if (op == "shootdown") return "TLB shootdowns";
  return op;
}

std::string outcomeLabel(const std::string& outcome) {
  if (outcome == "ring") return "ring hit";
  if (outcome == "ctrl_cache") return "controller-cache hit";
  if (outcome == "platter") return "platter access";
  if (outcome == "remote") return "remote memory";
  if (outcome == "all") return "all";
  return outcome;
}

// The "Sampled telemetry" + "Health" sections from an nwc-timeseries-v1
// document; returns empty on a schema mismatch (caller reports it).
std::string timeseriesSections(const JsonValue& samples) {
  const JsonValue* schema = samples.find("schema");
  if (schema == nullptr || schema->string != "nwc-timeseries-v1") {
    throw std::runtime_error("not an nwc-timeseries-v1 file");
  }
  std::ostringstream html;

  // Health onset/clear instants mark every track chart.
  std::vector<std::pair<double, bool>> marks;
  const JsonValue& health = samples.at("health");
  if (const JsonValue* events = health.find("events")) {
    for (const JsonValue& e : events->array) {
      marks.emplace_back(e.at("t").number, e.at("kind").string == "onset");
    }
  }

  html << "<h2 id=\"timeseries\">Sampled telemetry</h2>\n"
       << "<p class=\"muted\">" << fmtNum(samples.at("samples").number)
       << " samples every " << fmtNum(samples.at("interval_pcycles").number)
       << " pcycles; red markers are health onsets, grey ones clears.</p>\n";
  for (const auto& [name, track] : samples.at("tracks").object) {
    html << "<div class=\"card\"><h3>" << htmlEscape(name) << " <span "
         << "class=\"muted\">min " << fmtNum(track.at("min").number) << ", mean "
         << fmtNum(track.at("mean").number) << ", max "
         << fmtNum(track.at("max").number) << "</span></h3>"
         << trackChart(track, marks, 720, 60) << "</div>\n";
  }

  html << "<h2 id=\"health\">Health</h2>\n";
  const std::string verdict = health.at("verdict").string;
  html << "<p>verdict: <span class=\""
       << (verdict == "healthy" ? "ok" : "bad") << "\">" << htmlEscape(verdict)
       << "</span> (" << fmtNum(health.at("trips").number) << " trips over "
       << fmtNum(health.at("windows").number) << " windows)</p>\n";
  html << "<table class=\"wf\"><tr><th>detector</th><th>trips</th>"
          "<th>hot windows</th><th>worst</th></tr>";
  for (const auto& [name, d] : health.at("detectors").object) {
    html << "<tr><td>" << htmlEscape(name) << "</td><td class=\"n\">"
         << fmtNum(d.at("trips").number) << "</td><td class=\"n\">"
         << fmtNum(d.at("windows").number) << "</td><td class=\"n\">"
         << fmtNum(d.at("worst").number) << "</td></tr>";
  }
  html << "</table>\n";
  return html.str();
}

void writeHtml(const Report& rep, const JsonValue* samples,
               const std::string& title, const std::string& path) {
  std::ostringstream html;
  html << "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>"
       << htmlEscape(title) << "</title><style>\n"
       << "body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;"
          "max-width:60em;color:#222}\n"
       << "h1{font-size:1.4em}h2{font-size:1.1em;margin-top:1.6em}\n"
       << "h3{font-size:1em;margin:1em 0 .3em}\n"
       << ".legend span{margin-right:1.2em;white-space:nowrap}\n"
       << ".legend i{display:inline-block;width:.8em;height:.8em;"
          "margin-right:.35em;vertical-align:-1px}\n"
       << "table.wf{border-collapse:collapse;margin:.4em 0}\n"
       << "table.wf th{text-align:left;font-weight:600;padding:.1em .8em .1em 0}\n"
       << "table.wf td{padding:.1em .8em .1em 0}\n"
       << "td.n{text-align:right;font-variant-numeric:tabular-nums}\n"
       << ".ok{color:#2a7a2a}.bad{color:#b00020;font-weight:600}\n"
       << ".muted{color:#777}\n"
       << ".card{margin:.6em 0 1.4em}\n"
       << "</style></head><body>\n";
  html << "<h1>" << htmlEscape(title) << "</h1>\n";

  // Conservation banner.
  html << "<p>" << fmtNum(rep.attr.records) << " attributed operations; "
       << "conservation "
       << (rep.attr.violations == 0
               ? "<span class=\"ok\">exact (0 violations)</span>"
               : "<span class=\"bad\">" + fmtNum(rep.attr.violations) +
                     " violations</span>")
       << ".</p>\n";

  // Fig 3/4-style stacked CPU-stall bar.
  if (!rep.cpu.empty()) {
    html << "<h2>Execution-time breakdown (Fig 3/4 style)</h2><div class=\"card\">";
    const std::vector<std::pair<std::string, std::string>> buckets = {
        {"nofree_ticks", "#e15759"}, {"transit_ticks", "#f28e2b"},
        {"fault_ticks", "#4e79a7"},  {"tlb_ticks", "#76b7b2"},
        {"other_ticks", "#bab0ac"}};
    std::vector<Segment> segs;
    for (const auto& [key, color] : buckets) {
      const auto it = rep.cpu.find(key);
      if (it == rep.cpu.end()) continue;
      std::string label = key.substr(0, key.size() - std::strlen("_ticks"));
      segs.push_back({label, it->second, color});
    }
    html << svgStackedBar(segs, 720, 26) << legend(segs) << "</div>\n";
  }

  // Per-op sections: outcome composition + waterfalls.
  std::vector<std::string> ops;
  for (const auto& [key, _] : rep.attr.groups) {
    if (ops.empty() || ops.back() != key.first) ops.push_back(key.first);
  }
  for (const std::string& op : ops) {
    html << "<h2>" << htmlEscape(opHeading(op)) << "</h2>\n";
    for (const auto& [key, g] : rep.attr.groups) {
      if (key.first != op) continue;
      html << "<div class=\"card\"><h3>" << htmlEscape(outcomeLabel(key.second))
           << " &mdash; " << fmtNum(g.count) << " ops, "
           << fmtNum(g.end_to_end) << " pcycles end-to-end";
      if (g.p50 > 0 || g.p99 > 0) {
        html << " (p50 &le; " << fmtNum(g.p50) << ", p99 &le; " << fmtNum(g.p99)
             << ")";
      }
      html << "</h3>";
      std::vector<std::pair<std::string, StageTicks>> stages(g.stages.begin(),
                                                             g.stages.end());
      std::sort(stages.begin(), stages.end(), [](const auto& a, const auto& b) {
        return stageRank(a.first) < stageRank(b.first);
      });
      std::vector<Segment> segs;
      for (const auto& [name, st] : stages) {
        segs.push_back({name, st.total(), stageColor(name)});
      }
      html << svgStackedBar(segs, 720, 18) << legend(segs) << waterfallTable(g)
           << "</div>\n";
    }
  }

  // Sampled time series + health verdict (sample export optional).
  if (samples != nullptr) {
    html << timeseriesSections(*samples);
  }

  html << "<p class=\"muted\">generated by nwcreport from nwc-metrics-v1 "
          "artifacts</p></body></html>\n";

  nwc::util::writeFile(path, html.str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path, sample_path, csv_path, html_path;
  std::string title = "NWCache fault-latency attribution";
  const char* usage =
      "usage: nwcreport --metrics=FILE [--sample=FILE] "
      "[--csv=FILE] [--html=FILE] [--title=NAME]\n";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--metrics=", 0) == 0) {
      metrics_path = a.substr(std::strlen("--metrics="));
    } else if (a.rfind("--sample=", 0) == 0) {
      sample_path = a.substr(std::strlen("--sample="));
    } else if (a.rfind("--csv=", 0) == 0) {
      csv_path = a.substr(std::strlen("--csv="));
    } else if (a.rfind("--html=", 0) == 0) {
      html_path = a.substr(std::strlen("--html="));
    } else if (a.rfind("--title=", 0) == 0) {
      title = a.substr(std::strlen("--title="));
    } else if (a == "--help" || a == "-h") {
      std::printf("%s"
                  "  --metrics=FILE   nwc-metrics-v1 JSON (nwcsim --metrics=)\n"
                  "  --sample=FILE    nwc-timeseries-v1 export (nwcsim --sample=)\n"
                  "                   for per-track charts + health verdict\n"
                  "  --csv=FILE       long-format attribution table\n"
                  "  --html=FILE      self-contained report page\n"
                  "  --title=NAME     report heading\n",
                  usage);
      return 0;
    } else {
      std::fputs(usage, stderr);
      return 2;
    }
  }
  if (metrics_path.empty() || (csv_path.empty() && html_path.empty())) {
    std::fputs(usage, stderr);
    return 2;
  }
  try {
    const JsonValue metrics = parseJson(nwc::util::readFile(metrics_path));
    const Report rep = digestMetrics(metrics);
    if (rep.rows.empty()) {
      std::fprintf(stderr, "nwcreport: %s has no attr.* instruments\n",
                   metrics_path.c_str());
      return 1;
    }
    JsonValue samples;
    bool have_samples = false;
    if (!sample_path.empty()) {
      samples = parseJson(nwc::util::readFile(sample_path));
      have_samples = true;
    }
    if (!csv_path.empty()) {
      writeCsv(rep, csv_path);
      std::printf("csv: %s (%zu rows)\n", csv_path.c_str(), rep.rows.size());
    }
    if (!html_path.empty()) {
      writeHtml(rep, have_samples ? &samples : nullptr, title, html_path);
      std::printf("html: %s\n", html_path.c_str());
    }
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "nwcreport: %s\n", ex.what());
    return 2;
  }
}
