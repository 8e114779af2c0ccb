// Paper-vs-measured comparison: runs each application once per
// (system, prefetch) combination and prints every table and figure of the
// paper's evaluation (Tables 3-8, Figures 3/4) side by side with the 1999
// numbers. This is the one home of the paper's tables: the record in
// EXPERIMENTS.md and the CI golden both come from here.
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"

namespace {

using namespace nwc;

struct PaperRow {
  // Table 3 (Mpcycles) and Table 4 (Kpcycles): swap-out times.
  double t3_std, t3_nwc;
  double t4_std, t4_nwc;
  // Tables 5/6: write combining.
  double t5_std, t5_nwc;
  double t6_std, t6_nwc;
  // Table 7: ring hit rates (%).
  double t7_naive, t7_optimal;
  // Table 8: disk-cache-hit fault latency (Kpcycles).
  double t8_std, t8_nwc;
};

// Values transcribed from the paper's Tables 3-8.
const std::map<std::string, PaperRow> kPaper = {
    {"em3d", {49.2, 1.8, 180.4, 2.8, 1.11, 1.12, 1.10, 1.10, 8.5, 10.0, 13.4, 9.7}},
    {"fft", {86.6, 3.1, 318.1, 31.8, 1.20, 1.39, 1.35, 1.38, 9.8, 13.0, 25.9, 19.6}},
    {"gauss", {30.9, 1.0, 789.8, 86.3, 1.06, 1.07, 1.03, 1.04, 49.9, 58.3, 16.7, 10.4}},
    {"lu", {39.6, 2.0, 455.0, 24.3, 1.13, 1.24, 1.05, 1.05, 13.5, 19.5, 21.5, 20.3}},
    {"mg", {33.1, 0.6, 150.8, 19.2, 1.11, 1.16, 1.05, 1.11, 41.1, 59.1, 19.1, 6.7}},
    {"radix", {48.4, 2.7, 1776.9, 2.8, 1.08, 1.12, 1.05, 1.07, 17.2, 22.6, 12.6, 9.2}},
    {"sor", {31.8, 1.3, 819.4, 12.5, 1.46, 2.30, 1.18, 1.37, 25.8, 24.1, 14.3, 10.2}},
};

struct Measured {
  apps::RunSummary std_opt, nwc_opt, std_naive, nwc_naive;
};

std::string f1(double v) { return util::AsciiTable::fmt(v); }
std::string f2(double v) { return util::AsciiTable::fmt(v, 2); }

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::parseArgs(argc, argv, "paper_comparison");

  std::vector<apps::GridCell> plan;
  for (const std::string& app : bench::appList(opt)) {
    for (auto sys : {machine::SystemKind::kStandard, machine::SystemKind::kNWCache}) {
      for (auto pf : {machine::Prefetch::kOptimal, machine::Prefetch::kNaive}) {
        plan.push_back({app, bench::configFor(sys, pf, opt)});
      }
    }
  }
  std::vector<apps::RunSummary> summaries = apps::runGrid(plan, opt.grid());

  // The plan's order per app: standard (optimal, naive), nwcache (optimal,
  // naive).
  std::map<std::string, Measured> runs;
  std::size_t next = 0;
  for (const std::string& app : bench::appList(opt)) {
    Measured m;
    m.std_opt = std::move(summaries[next++]);
    m.std_naive = std::move(summaries[next++]);
    m.nwc_opt = std::move(summaries[next++]);
    m.nwc_naive = std::move(summaries[next++]);
    runs.emplace(app, std::move(m));
  }

  // Long-format mirror of every table cell: (table, app, metric, value).
  // This is what CI pins against a committed golden at small scale.
  std::vector<std::vector<std::string>> long_rows;

  auto table = [&](const char* key, const char* title,
                   const std::vector<std::string>& headers, auto&& row_fn) {
    std::printf("\n%s\n", title);
    util::AsciiTable t(headers);
    for (const auto& [app, m] : runs) {
      const auto pit = kPaper.find(app);
      if (pit == kPaper.end()) continue;
      std::vector<std::string> row = row_fn(app, pit->second, m);
      t.addRow(row);
      for (std::size_t c = 1; c < row.size(); ++c) {
        long_rows.push_back({key, app, headers[c], row[c]});
      }
    }
    t.print(std::cout);
  };

  table("table3", "Table 3: avg swap-out, optimal prefetch (Mpcycles)",
        {"App", "paper std", "ours std", "paper nwc", "ours nwc", "paper ratio",
         "ours ratio"},
        [](const std::string& app, const PaperRow& p, const Measured& m) {
          const double os = m.std_opt.metrics.swap_out_ticks.mean() / 1e6;
          const double on = m.nwc_opt.metrics.swap_out_ticks.mean() / 1e6;
          return std::vector<std::string>{
              app, f1(p.t3_std), f1(os), f2(p.t3_nwc), f2(on),
              f1(p.t3_std / p.t3_nwc) + "x", on > 0 ? f1(os / on) + "x" : "-"};
        });

  table("table4", "Table 4: avg swap-out, naive prefetch (Kpcycles)",
        {"App", "paper std", "ours std", "paper nwc", "ours nwc", "paper ratio",
         "ours ratio"},
        [](const std::string& app, const PaperRow& p, const Measured& m) {
          const double os = m.std_naive.metrics.swap_out_ticks.mean() / 1e3;
          const double on = m.nwc_naive.metrics.swap_out_ticks.mean() / 1e3;
          return std::vector<std::string>{
              app, f1(p.t4_std), f1(os), f1(p.t4_nwc), f1(on),
              f1(p.t4_std / p.t4_nwc) + "x", on > 0 ? f1(os / on) + "x" : "-"};
        });

  table("table5", "Table 5: write combining, optimal prefetch",
        {"App", "paper std", "ours std", "paper nwc", "ours nwc"},
        [](const std::string& app, const PaperRow& p, const Measured& m) {
          return std::vector<std::string>{
              app, f2(p.t5_std), f2(m.std_opt.metrics.write_combining.mean()),
              f2(p.t5_nwc), f2(m.nwc_opt.metrics.write_combining.mean())};
        });

  table("table6", "Table 6: write combining, naive prefetch",
        {"App", "paper std", "ours std", "paper nwc", "ours nwc"},
        [](const std::string& app, const PaperRow& p, const Measured& m) {
          return std::vector<std::string>{
              app, f2(p.t6_std), f2(m.std_naive.metrics.write_combining.mean()),
              f2(p.t6_nwc), f2(m.nwc_naive.metrics.write_combining.mean())};
        });

  table("table7", "Table 7: NWCache read hit rates (%)",
        {"App", "paper naive", "ours naive", "paper optimal", "ours optimal"},
        [](const std::string& app, const PaperRow& p, const Measured& m) {
          return std::vector<std::string>{
              app, f1(p.t7_naive), f1(m.nwc_naive.metrics.ring_read_hits.rate() * 100),
              f1(p.t7_optimal), f1(m.nwc_opt.metrics.ring_read_hits.rate() * 100)};
        });

  table("table8", "Table 8: disk-cache-hit fault latency, naive prefetch (Kpcycles)",
        {"App", "paper std", "ours std", "paper nwc", "ours nwc"},
        [](const std::string& app, const PaperRow& p, const Measured& m) {
          return std::vector<std::string>{
              app, f1(p.t8_std),
              f1(m.std_naive.metrics.disk_cache_hit_fault_ticks.mean() / 1e3),
              f1(p.t8_nwc),
              f1(m.nwc_naive.metrics.disk_cache_hit_fault_ticks.mean() / 1e3)};
        });

  // Figures 3/4: overall execution-time improvement of the NWCache machine.
  std::printf("\nFigures 3/4: NWCache execution-time improvement\n");
  std::printf("(paper: optimal 23-64%% avg 41%%; naive -3%% to 42%%)\n");
  util::AsciiTable t({"App", "optimal (ours)", "naive (ours)"});
  for (const auto& [app, m] : runs) {
    const double i_opt = 1.0 - static_cast<double>(m.nwc_opt.exec_time) /
                                   static_cast<double>(m.std_opt.exec_time);
    const double i_naive = 1.0 - static_cast<double>(m.nwc_naive.exec_time) /
                                     static_cast<double>(m.std_naive.exec_time);
    t.addRow({app, util::AsciiTable::fmtPct(i_opt), util::AsciiTable::fmtPct(i_naive)});
    long_rows.push_back({"figure34", app, "optimal (ours)", util::AsciiTable::fmtPct(i_opt)});
    long_rows.push_back({"figure34", app, "naive (ours)", util::AsciiTable::fmtPct(i_naive)});
  }
  t.print(std::cout);

  // Attribution: where fault latency goes (stage-tagged accountant, see
  // docs/OBSERVABILITY.md). Queue share = ticks spent waiting behind other
  // traffic across all stages / end-to-end fault latency — the contention
  // the NWCache is supposed to remove. Appended after the classic tables so
  // the long-CSV keeps the historical rows as a stable prefix.
  auto faultQueueShare = [](const apps::RunSummary& s) {
    std::uint64_t queue = 0, total = 0;
    for (auto oc : {obs::AttrOutcome::kRing, obs::AttrOutcome::kCtrlCache,
                    obs::AttrOutcome::kPlatter, obs::AttrOutcome::kRemote}) {
      const obs::AttrGroup& g = s.metrics.attr.group(obs::AttrOp::kFault, oc);
      total += g.end_to_end_ticks;
      for (const auto& st : g.stages) queue += static_cast<std::uint64_t>(st.queue);
    }
    return total > 0 ? static_cast<double>(queue) / static_cast<double>(total) : 0.0;
  };
  auto ringFaultShare = [](const apps::RunSummary& s) {
    std::uint64_t ring = 0, total = 0;
    for (auto oc : {obs::AttrOutcome::kRing, obs::AttrOutcome::kCtrlCache,
                    obs::AttrOutcome::kPlatter, obs::AttrOutcome::kRemote}) {
      const std::uint64_t c = s.metrics.attr.group(obs::AttrOp::kFault, oc).count;
      total += c;
      if (oc == obs::AttrOutcome::kRing) ring += c;
    }
    return total > 0 ? static_cast<double>(ring) / static_cast<double>(total) : 0.0;
  };
  std::printf("\nAttribution: fault queue-wait share, naive prefetch\n");
  std::printf("(stage-attributed waiting as %% of end-to-end fault latency)\n");
  util::AsciiTable at({"App", "std queue", "nwc queue", "nwc ring hits"});
  for (const auto& [app, m] : runs) {
    const std::string sq = util::AsciiTable::fmtPct(faultQueueShare(m.std_naive));
    const std::string nq = util::AsciiTable::fmtPct(faultQueueShare(m.nwc_naive));
    const std::string rh = util::AsciiTable::fmtPct(ringFaultShare(m.nwc_naive));
    at.addRow({app, sq, nq, rh});
    long_rows.push_back({"attr", app, "std queue", sq});
    long_rows.push_back({"attr", app, "nwc queue", nq});
    long_rows.push_back({"attr", app, "nwc ring hits", rh});
  }
  at.print(std::cout);

  // Figures 3/4: per-category execution-time breakdown. Each category's
  // cpu-sum is normalized by (#cpus x standard exec time), so the standard
  // bar totals 1.000 as in the paper's figures.
  auto breakdown = [&](const char* key, const char* title,
                       apps::RunSummary Measured::*std_run,
                       apps::RunSummary Measured::*nwc_run) {
    static const char* kCategories[] = {"nofree", "transit", "fault", "tlb", "other",
                                        "total"};
    std::printf("\n%s\n", title);
    util::AsciiTable bt({"App", "System", "NoFree", "Transit", "Fault", "TLB", "Other",
                         "Total"});
    for (const auto& [app, m] : runs) {
      const apps::RunSummary& base = m.*std_run;
      const double base_ticks = static_cast<double>(base.exec_time);
      const double cpu_ticks = static_cast<double>(base.metrics.numCpus()) * base_ticks;
      auto addBar = [&](const char* sys, const apps::RunSummary& s) {
        const machine::Metrics& mt = s.metrics;
        const double parts[] = {static_cast<double>(mt.totalNoFree()) / cpu_ticks,
                                static_cast<double>(mt.totalTransit()) / cpu_ticks,
                                static_cast<double>(mt.totalFault()) / cpu_ticks,
                                static_cast<double>(mt.totalTlb()) / cpu_ticks,
                                static_cast<double>(mt.totalOther()) / cpu_ticks,
                                static_cast<double>(s.exec_time) / base_ticks};
        std::vector<std::string> row = {app, sys};
        for (std::size_t c = 0; c < std::size(parts); ++c) {
          row.push_back(util::AsciiTable::fmt(parts[c], 3));
          long_rows.push_back({key, app, std::string(sys) + " " + kCategories[c], row.back()});
        }
        bt.addRow(row);
      };
      addBar("standard", base);
      addBar("nwcache", m.*nwc_run);
    }
    bt.print(std::cout);
  };
  breakdown("figure3", "Figure 3: execution-time breakdown, optimal prefetch "
                       "(normalized to the standard machine)",
            &Measured::std_opt, &Measured::nwc_opt);
  breakdown("figure4", "Figure 4: execution-time breakdown, naive prefetch "
                       "(normalized to the standard machine)",
            &Measured::std_naive, &Measured::nwc_naive);

  // Table 8's contention proxy: stage-attributed queue ticks as a share of
  // the end-to-end latency of controller-cache-hit faults. It should fall
  // with the NWCache, since the ring drains the mesh and I/O-bus traffic.
  auto ctrlHitQueueShare = [](const apps::RunSummary& s) {
    const obs::AttrGroup& g =
        s.metrics.attr.group(obs::AttrOp::kFault, obs::AttrOutcome::kCtrlCache);
    std::uint64_t queue = 0;
    for (const auto& st : g.stages) queue += static_cast<std::uint64_t>(st.queue);
    const double pct = g.end_to_end_ticks > 0
                           ? 100.0 * static_cast<double>(queue) /
                                 static_cast<double>(g.end_to_end_ticks)
                           : 0.0;
    return util::AsciiTable::fmt(pct, 1) + "%";
  };
  std::printf("\nTable 8 (queue share): controller-cache-hit fault queue wait, "
              "naive prefetch\n");
  util::AsciiTable qt({"App", "std ctrl-hit queue", "nwc ctrl-hit queue"});
  for (const auto& [app, m] : runs) {
    const std::string sq = ctrlHitQueueShare(m.std_naive);
    const std::string nq = ctrlHitQueueShare(m.nwc_naive);
    qt.addRow({app, sq, nq});
    long_rows.push_back({"table8", app, "std ctrl-hit queue", sq});
    long_rows.push_back({"table8", app, "nwc ctrl-hit queue", nq});
  }
  qt.print(std::cout);

  if (!opt.csv_path.empty()) {
    bench::writeCsv(opt.csv_path, {"table", "app", "metric", "value"}, long_rows);
  }

  bool all_ok = true;
  for (const auto& [app, m] : runs) {
    for (const auto* s : {&m.std_opt, &m.nwc_opt, &m.std_naive, &m.nwc_naive}) {
      if (!s->ok()) {
        std::printf("WARNING: %s failed verification on %s\n", app.c_str(),
                    s->cfg.describe().c_str());
        all_ok = false;
      }
    }
  }
  std::printf("\nall runs verified: %s\n", all_ok ? "yes" : "NO");
  return all_ok ? 0 : 1;
}
