// Per-run provenance: everything needed to reproduce or audit one grid
// cell — config hash, build git sha, seed, scale, wall time, peak RSS —
// written as a small run_meta.json next to the run's outputs.
#pragma once

#include <cstdint>
#include <string>

namespace nwc::obs {

/// FNV-1a 64-bit hash (stable across platforms; used for config hashes).
std::uint64_t fnv1aHash(const std::string& s);

/// Git sha the binary was built from, stamped on every build
/// (obs/git_stamp.cmake; "unknown" when the build did not run inside a
/// checkout of this tree).
std::string buildGitSha();

/// True when tracked files differed from that sha at build time, or when
/// the sha is unknown: the binary is then not known to match a commit.
bool buildGitDirty();

// RSS and byte-formatting helpers live in util/host.hpp (util::currentRssBytes,
// util::peakRssBytes, util::formatBytes) so host facts are read one way
// everywhere — run_meta, the nwcbatch heartbeat, the profiler.

struct RunMeta {
  std::string app;
  std::string system;
  std::string prefetch;
  std::uint64_t seed = 0;
  double scale = 1.0;
  std::uint64_t config_hash = 0;  // fnv1aHash of the serialized machine INI
  std::string git_sha;
  bool dirty = false;  // see buildGitDirty()
  double wall_ms = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t exec_pcycles = 0;
  bool verified = false;
  // Continuous-telemetry verdict ("healthy" / "degraded"); empty when the
  // run was not sampled (the fields are then omitted from the JSON).
  std::string health_verdict;
  std::uint64_t health_trips = 0;
  // Host provenance: filled by fillHostFields() from
  // util::hostInfo(). Empty/zero fields are omitted from the JSON so
  // pre-existing metadata consumers see unchanged files until callers opt in.
  unsigned host_cores = 0;
  std::string host_compiler;
  std::string host_flags;

  void fillHostFields();

  std::string toJson() const;
  void write(const std::string& path) const;  // throws on I/O failure
};

}  // namespace nwc::obs
