// Host machine introspection: the one place the simulator reads facts
// about the machine it is *running on* (as opposed to the machine it is
// simulating) — resident set size, core count, compiler, kernel.
//
// Everything that reports host RSS (the nwcbatch heartbeat, run_meta
// provenance, the profiler) goes through these
// helpers so memory is measured exactly one way everywhere.
#pragma once

#include <cstdint>
#include <string>

namespace nwc::util {

/// Current resident set size in bytes (/proc/self/statm; 0 if unavailable).
std::uint64_t currentRssBytes();

/// Process peak resident set size in bytes (/proc/self/status VmHWM; 0 if
/// unavailable). Note: process-wide high-water mark, so per-cell readings
/// in a batch are an upper bound on the cell's own footprint.
std::uint64_t peakRssBytes();

/// Renders bytes as a short human string ("1.5 GB", "312 MB", "8 KB").
std::string formatBytes(std::uint64_t bytes);

/// Static facts about the host, captured once per process. String fields
/// fall back to "unknown" when the platform does not expose them.
struct HostInfo {
  std::string hostname;
  std::string os;             // "Linux 6.8.0-..." from uname
  std::string cpu_model;      // /proc/cpuinfo "model name"
  unsigned cores = 1;         // std::thread::hardware_concurrency()
  std::uint64_t total_mem_bytes = 0;  // /proc/meminfo MemTotal
  std::string compiler;       // e.g. "gcc 13.2.0" (from __VERSION__)
  std::string compile_flags;  // CMake CXX flags the binary was built with
  std::string build_type;     // CMAKE_BUILD_TYPE ("" when not set)
};

/// Cached per-process snapshot (taken on first call).
const HostInfo& hostInfo();

/// The HostInfo as a JSON object (stable key order), for run provenance
/// and the profile report.
std::string hostInfoJson();

}  // namespace nwc::util
