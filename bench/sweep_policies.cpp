// Write-cache policy study: which admission / destage policy wins where?
//
// The paper's NWCache admits every swap-out onto the ring and the DCD
// absorbs every batch into its log; both destage strictly FIFO. Later
// hybrid write-cache work (bouncer's sieved write buffer, the Optane
// "Writes Hurt" study) argues the policy seam matters more than the cache
// capacity. This sweep crosses the two cache-bearing systems with every
// admission policy (`always`, `sieve`) and both destage orders
// (`fifo`, `write-combine`) over the paper's kernels, and reports the
// destage-side pressure next to the end-to-end numbers:
//
//  - `Destage stall` is the ticks destage operations spent queued for a
//    disk arm (Metrics::destage_stall_ticks) — the write cache's back-end
//    cost, which write-combine attacks by issuing fewer, longer writes;
//  - `Batch mean` is pages moved per destage operation;
//  - `Admit rate` shows how aggressively an admission policy sieves
//    (1.00 for `always` by definition).
//
// docs/POLICIES.md carries the measured "which policy when" table from
// this bench; docs/EXPERIMENTS.md describes the workflow.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace nwc;
  auto opt = bench::parseArgs(argc, argv, "sweep_policies", 0.1, {"radix"});

  const machine::SystemKind systems[] = {machine::SystemKind::kNWCache,
                                         machine::SystemKind::kDCD};
  const machine::AdmissionKind admissions[] = {machine::AdmissionKind::kAlways,
                                               machine::AdmissionKind::kSieve};
  const machine::DestageKind destages[] = {machine::DestageKind::kFifo,
                                           machine::DestageKind::kWriteCombine};

  auto cfgFor = [&](machine::SystemKind sys, machine::AdmissionKind adm,
                    machine::DestageKind dst) {
    machine::MachineConfig cfg =
        bench::configFor(sys, machine::Prefetch::kOptimal, opt);
    cfg.memory_per_node = 16 * 1024;  // force heavy paging at bench scales
    cfg.ring_admission = adm;
    cfg.destage_policy = dst;
    // Bench-scale working sets are small; shrink the sieve's tables so it
    // actually discriminates (512 pages would cover the whole dataset and
    // reduce it to `always`).
    cfg.policy_ghost_pages = 256;
    return cfg;
  };

  std::printf("Write-cache policy sweep (optimal prefetch, scale=%.2f)\n",
              opt.scale);

  std::vector<apps::GridCell> plan;
  for (const std::string& app : bench::appList(opt)) {
    for (auto sys : systems) {
      for (auto adm : admissions) {
        for (auto dst : destages) {
          plan.push_back({app, cfgFor(sys, adm, dst)});
        }
      }
    }
  }
  const auto runs = apps::runGrid(plan, opt.grid());

  util::AsciiTable t({"Application", "System", "Admission", "Destage",
                      "Exec (Mpc)", "Fault mean (pc)", "Destage stall (Mpc)",
                      "Batch mean", "Admit rate"});
  std::vector<std::vector<std::string>> rows;

  std::size_t next = 0;
  for (const std::string& app : bench::appList(opt)) {
    for (auto sys : systems) {
      // The acceptance question: does any non-default policy beat the
      // paper-faithful `always`+`fifo` baseline on destage stall time?
      double base_stall = -1, best_stall = -1;
      std::string best_name;
      for (auto adm : admissions) {
        for (auto dst : destages) {
          const apps::RunSummary& s = runs[next++];
          const auto& m = s.metrics;
          const double stall_mpc =
              static_cast<double>(m.destage_stall_ticks) / 1e6;
          const std::uint64_t decisions = m.policy_admits + m.policy_rejects;
          const double admit_rate =
              decisions ? static_cast<double>(m.policy_admits) /
                              static_cast<double>(decisions)
                        : 1.0;
          const double batch_mean =
              m.destage_writes ? static_cast<double>(m.destage_pages) /
                                     static_cast<double>(m.destage_writes)
                               : 0.0;
          const std::string name = std::string(toString(adm)) + "+" +
                                   toString(dst);
          if (adm == machine::AdmissionKind::kAlways &&
              dst == machine::DestageKind::kFifo) {
            base_stall = stall_mpc;
          } else if (best_stall < 0 || stall_mpc < best_stall) {
            best_stall = stall_mpc;
            best_name = name;
          }
          std::vector<std::string> row = {
              app,
              toString(sys),
              toString(adm),
              toString(dst),
              util::AsciiTable::fmt(static_cast<double>(s.exec_time) / 1e6),
              util::AsciiTable::fmt(m.fault_ticks.mean()),
              util::AsciiTable::fmt(stall_mpc, 3),
              util::AsciiTable::fmt(batch_mean, 2),
              util::AsciiTable::fmt(admit_rate, 3)};
          t.addRow(row);
          rows.push_back(row);
        }
      }
      std::printf(
          "%s/%s: baseline always+fifo stalls %.1f Mpc; best other %s "
          "stalls %.1f Mpc (%+.1f%%)\n",
          app.c_str(), toString(sys), base_stall, best_name.c_str(),
          best_stall,
          base_stall > 0 ? (best_stall - base_stall) / base_stall * 100.0
                         : 0.0);
    }
  }
  bench::emit(opt, t,
              {"app", "system", "admission", "destage", "exec_mpcycles",
               "fault_mean_pcycles", "destage_stall_mpcycles",
               "destage_batch_mean", "admit_rate"},
              rows);
  std::printf(
      "Expected shape: write-combine cuts destage stall on write-heavy "
      "kernels (fewer, longer platter writes); sieved admission trades "
      "write-cache hits for less destage traffic.\n");
  return 0;
}
