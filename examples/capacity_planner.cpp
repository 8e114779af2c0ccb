// Capacity planner: explore the delay-line storage law of section 3.2 —
// how much write-cache capacity a WDM ring provides as a function of fiber
// length, channel count and transmission rate — and what that does to the
// round-trip (search) latency seen by victim reads.
//
//   ./capacity_planner [target_capacity_kb_per_channel]
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "nwcache/optical_ring.hpp"
#include "util/ini.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace nwc;
  double target_kb = 64.0;
  try {
    if (argc > 2) throw std::invalid_argument("unexpected argument '" + std::string(argv[2]) + "'");
    if (argc > 1) target_kb = util::positiveFlag("target_capacity_kb_per_channel", argv[1]);
  } catch (const std::invalid_argument& ex) {
    std::fprintf(stderr, "capacity_planner: %s\n", ex.what());
    return 2;
  }

  std::printf("Optical delay-line capacity planning (capacity_bits = channels x\n"
              "length x rate / 2.1e8 m/s; paper section 2 and 3.2)\n\n");

  // Part 1: capacity of various (channels, length, rate) designs.
  util::AsciiTable t1({"Channels", "Fiber (km)", "Rate (Gb/s)", "Capacity (KB)",
                       "Pages", "Round trip (us)"});
  const double kLight = 2.1e8;
  for (int channels : {8, 32, 128, 5000 /* OTDM projection, section 4 */}) {
    for (double km : {1.0, 10.0, 50.0}) {
      const double rate_bps = 10e9;  // 10 Gb/s per channel
      const double bits = ring::delayLineCapacityBits(channels, km * 1000.0, rate_bps);
      const double kb = bits / 8.0 / 1024.0;
      const double rt_us = km * 1000.0 / kLight * 1e6;
      t1.addRow({util::AsciiTable::fmtInt(channels), util::AsciiTable::fmt(km),
                 util::AsciiTable::fmt(rate_bps / 1e9), util::AsciiTable::fmt(kb),
                 util::AsciiTable::fmtInt(static_cast<long long>(kb / 4.0)),
                 util::AsciiTable::fmt(rt_us)});
    }
  }
  t1.print(std::cout);

  // Part 2: fiber length needed for a target per-channel capacity.
  std::printf("\nFiber needed for %.0f KB per channel:\n", target_kb);
  util::AsciiTable t2({"Rate (Gb/s)", "Fiber (km)", "Round trip (us)",
                       "Page pass time (us)"});
  for (double gbps : {2.5, 10.0, 40.0}) {
    const double rate = gbps * 1e9;
    const double len = ring::fiberLengthForCapacity(
        static_cast<std::uint64_t>(target_kb * 1024.0), rate);
    const double rt_us = len / kLight * 1e6;
    const double page_us = 4096.0 * 8.0 / rate * 1e6;
    t2.addRow({util::AsciiTable::fmt(gbps), util::AsciiTable::fmt(len / 1000.0, 2),
               util::AsciiTable::fmt(rt_us), util::AsciiTable::fmt(page_us, 2)});
  }
  t2.print(std::cout);

  std::printf("\nTable 1's configuration (8 channels x 64 KB, 52 us round trip,\n"
              "1.25 GB/s) corresponds to ~11 km of fiber at 10 Gb/s per channel.\n"
              "Longer fiber buys capacity linearly but raises the victim-read\n"
              "search latency by the same factor.\n");
  return 0;
}
