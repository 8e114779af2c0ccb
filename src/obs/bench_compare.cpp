#include "obs/bench_compare.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace nwc::obs::bench {

namespace {

std::string rawJson(const util::JsonValue& v) {
  // Re-render an object subtree (used only for the host provenance blob,
  // which is carried through without interpretation).
  switch (v.type) {
    case util::JsonValue::Type::kNull:
      return "null";
    case util::JsonValue::Type::kBool:
      return v.boolean ? "true" : "false";
    case util::JsonValue::Type::kNumber: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.number);
      return buf;
    }
    case util::JsonValue::Type::kString: {
      // Built with += (not operator+ chains): g++ 12's -Wrestrict misfires
      // on the temporary-splicing pattern at -O3, which -Werror turns fatal.
      std::string out = "\"";
      out += util::jsonEscape(v.string);
      out += "\"";
      return out;
    }
    case util::JsonValue::Type::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i != 0) out += ",";
        out += "\"";
        out += util::jsonEscape(v.object[i].first);
        out += "\":";
        out += rawJson(v.object[i].second);
      }
      return out + "}";
    }
    case util::JsonValue::Type::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i != 0) out += ",";
        out += rawJson(v.array[i]);
      }
      return out + "]";
    }
  }
  return "null";
}

double numberOr(const util::JsonValue* v, double fallback) {
  return v != nullptr && v->type == util::JsonValue::Type::kNumber ? v->number
                                                                   : fallback;
}

std::string fmtValue(double v) {
  char buf[32];
  if (v >= 100.0 || v == std::floor(v)) {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

const char* statusLabel(RowStatus s) {
  switch (s) {
    case RowStatus::kOk: return "ok";
    case RowStatus::kRegression: return "**REGRESSION**";
    case RowStatus::kImprovement: return "improvement";
    case RowStatus::kNoise: return "noise (under floor)";
    case RowStatus::kInfo: return "info";
    case RowStatus::kMissing: return "**MISSING**";
  }
  return "?";
}

}  // namespace

BenchFile parseBenchFile(const std::string& json_text) {
  const util::JsonValue doc = util::parseJson(json_text);
  if (!doc.isObject()) throw std::runtime_error("bench: document is not an object");
  BenchFile f;
  f.schema = doc.at("schema").string;
  if (f.schema != kBenchSchema) {
    throw std::runtime_error("bench: unsupported schema \"" + f.schema +
                             "\" (want " + kBenchSchema + ")");
  }
  if (const auto* v = doc.find("tag")) f.tag = v->string;
  if (const auto* v = doc.find("git_sha")) f.git_sha = v->string;
  if (const auto* v = doc.find("trials")) f.trials = static_cast<unsigned>(v->number);
  if (const auto* v = doc.find("host")) f.host_json = rawJson(*v);
  const util::JsonValue& wl = doc.at("workloads");
  if (!wl.isArray()) throw std::runtime_error("bench: workloads is not an array");
  for (const util::JsonValue& w : wl.array) {
    Workload out;
    out.name = w.at("name").string;
    out.wall_ms = numberOr(w.find("wall_ms"), 0.0);
    out.pages_per_s = numberOr(w.find("pages_per_s"), 0.0);
    out.events_per_s = numberOr(w.find("events_per_s"), 0.0);
    out.peak_rss_bytes =
        static_cast<std::uint64_t>(numberOr(w.find("peak_rss_bytes"), 0.0));
    out.pool_utilization = numberOr(w.find("pool_utilization"), 0.0);
    if (const auto* phases = w.find("phases"); phases != nullptr && phases->isObject()) {
      for (const auto& [k, v] : phases->object) {
        if (v.type == util::JsonValue::Type::kNumber) out.phase_wall_ms[k] = v.number;
      }
    }
    f.workloads.push_back(std::move(out));
  }
  return f;
}

BenchFile readBenchFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("bench: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    return parseBenchFile(ss.str());
  } catch (const std::exception& ex) {
    throw std::runtime_error(path + ": " + ex.what());
  }
}

CompareResult compare(const BenchFile& baseline, const BenchFile& current,
                      const CompareOptions& opts) {
  CompareResult res;
  auto findCurrent = [&](const std::string& name) -> const Workload* {
    for (const Workload& w : current.workloads) {
      if (w.name == name) return &w;
    }
    return nullptr;
  };
  auto addRow = [&](const std::string& wl, const std::string& metric, double base,
                    double cur, bool gates, bool lower_better, bool time_metric) {
    CompareRow r;
    r.workload = wl;
    r.metric = metric;
    r.baseline = base;
    r.current = cur;
    r.ratio = base > 0.0 ? cur / base : 0.0;
    r.status = RowStatus::kOk;
    if (!gates) {
      r.status = RowStatus::kInfo;
    } else if (base <= 0.0) {
      r.status = RowStatus::kInfo;  // nothing to ratio against
    } else {
      const double worse = lower_better ? r.ratio : 1.0 / r.ratio;
      if (worse > 1.0 + opts.tolerance) {
        r.status = time_metric && base < opts.min_wall_ms ? RowStatus::kNoise
                                                          : RowStatus::kRegression;
      } else if (worse < 1.0 / (1.0 + opts.tolerance)) {
        r.status = RowStatus::kImprovement;
      }
    }
    if (r.status == RowStatus::kRegression) ++res.regressions;
    if (r.status == RowStatus::kImprovement) ++res.improvements;
    res.rows.push_back(std::move(r));
  };

  for (const Workload& b : baseline.workloads) {
    const Workload* c = findCurrent(b.name);
    if (c == nullptr) {
      CompareRow r;
      r.workload = b.name;
      r.metric = "wall_ms";
      r.baseline = b.wall_ms;
      r.status = RowStatus::kMissing;
      ++res.regressions;
      res.rows.push_back(std::move(r));
      continue;
    }
    addRow(b.name, "wall_ms", b.wall_ms, c->wall_ms, /*gates=*/true,
           /*lower_better=*/true, /*time_metric=*/true);
    if (opts.include_phases) {
      for (const auto& [phase, base_ms] : b.phase_wall_ms) {
        const auto it = c->phase_wall_ms.find(phase);
        addRow(b.name, "phase:" + phase, base_ms,
               it != c->phase_wall_ms.end() ? it->second : 0.0,
               /*gates=*/it != c->phase_wall_ms.end(),
               /*lower_better=*/true, /*time_metric=*/true);
      }
    }
    addRow(b.name, "peak_rss_mb", static_cast<double>(b.peak_rss_bytes) / 1048576.0,
           static_cast<double>(c->peak_rss_bytes) / 1048576.0, /*gates=*/true,
           /*lower_better=*/true, /*time_metric=*/false);
    addRow(b.name, "pages_per_s", b.pages_per_s, c->pages_per_s, /*gates=*/false,
           /*lower_better=*/false, /*time_metric=*/false);
    if (b.pool_utilization > 0.0 || c->pool_utilization > 0.0) {
      addRow(b.name, "pool_utilization", b.pool_utilization, c->pool_utilization,
             /*gates=*/false, /*lower_better=*/false, /*time_metric=*/false);
    }
  }
  return res;
}

std::string CompareResult::markdown() const {
  auto row = [](const CompareRow& r) {
    return "| " + r.workload + " | " + r.metric + " | " + fmtValue(r.baseline) +
           " | " + fmtValue(r.current) + " | " +
           (r.ratio > 0.0 ? fmtValue(r.ratio) : std::string("-")) + " | " +
           statusLabel(r.status) + " |\n";
  };
  constexpr const char* kHeader =
      "| workload | metric | baseline | current | ratio | status |\n"
      "|---|---|---:|---:|---:|---|\n";
  std::string out = kHeader;
  for (const CompareRow& r : rows) {
    if (r.status == RowStatus::kImprovement) continue;
    out += row(r);
  }
  // Improvements get their own section so wins read at a glance instead of
  // drowning in the (mostly "ok") main table.
  if (improvements > 0) {
    out += "\n### faster\n\n";
    out += kHeader;
    for (const CompareRow& r : rows) {
      if (r.status == RowStatus::kImprovement) out += row(r);
    }
  }
  out += "\n";
  if (regressions == 0) {
    out += "verdict: PASS (" + std::to_string(rows.size()) + " rows, " +
           std::to_string(improvements) + " improvements)\n";
  } else {
    out += "verdict: FAIL (" + std::to_string(regressions) + " regressions)\n";
  }
  return out;
}

}  // namespace nwc::obs::bench
