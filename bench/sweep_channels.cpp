// OTDM channel-scaling study: how far can the NWCache's cache-channel count
// grow before the per-node tunable receivers become the bottleneck?
//
// The paper's ring multiplexes one cache channel per node; optical TDM slots
// make the channel count a free parameter, but every staged page still has
// to come back off the ring through one of the node's few tunable receivers.
// This sweep scales ring_channels far past the node count for several
// receiver-bank sizes, with the bank pooled (shared mode) and a non-zero
// wavelength retune cost. Two curves come out of it:
//
//  - execution time falls steeply with the channel count (more staging room,
//    fewer swap-outs blocked waiting for a ring slot) until the ring stops
//    being capacity-limited — the capacity knee;
//  - mean fault latency rises monotonically and then saturates: with many
//    channels a node's victim reads land on a different wavelength almost
//    every time, so nearly every receiver transfer pays the retune — the
//    receiver-limited regime the study is after.
//
// See docs/EXPERIMENTS.md for the workflow and the measured knee.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace nwc;
  // Small input, small memory: the study wants heavy paging (so the ring and
  // its receivers are actually exercised) without paper-scale runtimes.
  auto opt = bench::parseArgs(argc, argv, "sweep_channels", 0.1, {"radix"});

  const int channel_counts[] = {8, 16, 64, 256, 1024, 5000};
  const int receiver_counts[] = {1, 2, 4};

  auto cfgFor = [&](int channels, int receivers) {
    machine::MachineConfig cfg = bench::configFor(
        machine::SystemKind::kNWCache, machine::Prefetch::kOptimal, opt);
    cfg.memory_per_node = 16 * 1024;   // force heavy paging at bench scales
    cfg.ring_channels = channels;
    cfg.ring_receivers = receivers;
    cfg.ring_shared_receivers = true;  // pooled bank: any receiver, any use
    cfg.ring_retune_us = 40.0;         // switching wavelengths is not free
    return cfg;
  };

  std::printf(
      "OTDM channel sweep (NWCache/optimal, shared receivers, retune=40us, "
      "scale=%.2f)\n",
      opt.scale);

  std::vector<apps::GridCell> plan;
  for (const std::string& app : bench::appList(opt)) {
    for (int rx : receiver_counts) {
      for (int ch : channel_counts) {
        plan.push_back({app, cfgFor(ch, rx)});
      }
    }
  }
  const auto runs = apps::runGrid(plan, opt.grid());

  util::AsciiTable t({"Application", "Receivers", "Channels", "Exec (Mpc)",
                      "Fault mean (pc)", "Ring hit rate"});
  std::vector<std::vector<std::string>> rows;

  std::size_t next = 0;
  for (const std::string& app : bench::appList(opt)) {
    for (int rx : receiver_counts) {
      // This receiver-bank size's runs, one per channel count.
      const apps::RunSummary* curve = &runs[next];
      next += std::size(channel_counts);
      // Locate the knees for this receiver-bank size: the capacity knee is
      // the smallest channel count within 5% of the best execution time; the
      // receiver knee is the smallest one within 2% of the saturated (worst)
      // fault latency, i.e. where retunes stop getting more frequent.
      double best_exec = -1, worst_fault = -1;
      for (std::size_t c = 0; c < std::size(channel_counts); ++c) {
        const apps::RunSummary& s = curve[c];
        const double mpc = static_cast<double>(s.exec_time) / 1e6;
        const double fm = s.metrics.fault_ticks.mean();
        if (best_exec < 0 || mpc < best_exec) best_exec = mpc;
        if (fm > worst_fault) worst_fault = fm;
      }
      int capacity_knee = 0, receiver_knee = 0;
      for (std::size_t c = 0; c < std::size(channel_counts); ++c) {
        const int ch = channel_counts[c];
        const apps::RunSummary& s = curve[c];
        const double mpc = static_cast<double>(s.exec_time) / 1e6;
        const double fm = s.metrics.fault_ticks.mean();
        if (capacity_knee == 0 && mpc <= best_exec * 1.05) capacity_knee = ch;
        if (receiver_knee == 0 && fm >= worst_fault * 0.98) receiver_knee = ch;
        std::vector<std::string> row = {
            app, std::to_string(rx), std::to_string(ch),
            util::AsciiTable::fmt(mpc), util::AsciiTable::fmt(fm),
            util::AsciiTable::fmt(s.metrics.ring_read_hits.rate())};
        t.addRow(row);
        rows.push_back(row);
      }
      std::printf("%s rx=%d: capacity knee at %d channels (best exec %.1f "
                  "Mpc); fault latency saturates at %d channels (%.0f pc)\n",
                  app.c_str(), rx, capacity_knee, best_exec, receiver_knee,
                  worst_fault);
    }
  }
  bench::emit(opt, t,
              {"app", "receivers", "channels", "exec_mpcycles",
               "fault_mean_pcycles", "ring_hit_rate"},
              rows);
  std::printf("Expected shape: execution time falls until the ring stops "
              "being capacity-limited, while per-fault latency climbs to the "
              "retune-saturated plateau; small receiver banks pay slightly "
              "more.\n");
  return 0;
}
