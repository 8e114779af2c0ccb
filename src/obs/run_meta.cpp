#include "obs/run_meta.hpp"

#include <cstdio>

#include "util/file.hpp"
#include "util/host.hpp"
#include "util/json.hpp"

#include "nwc_git_stamp.h"

namespace nwc::obs {

std::uint64_t fnv1aHash(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string buildGitSha() { return NWC_GIT_SHA; }

bool buildGitDirty() { return NWC_GIT_DIRTY != 0; }

void RunMeta::fillHostFields() {
  const util::HostInfo& h = util::hostInfo();
  host_cores = h.cores;
  host_compiler = h.compiler;
  host_flags = h.compile_flags;
}

std::string RunMeta::toJson() const {
  char hash_hex[20];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(config_hash));
  util::JsonObject o;
  o.add("schema", "nwc-run-meta-v1")
      .add("app", app)
      .add("system", system)
      .add("prefetch", prefetch)
      .add("seed", seed)
      .add("scale", scale)
      .add("config_hash", std::string(hash_hex))
      .add("git_sha", git_sha)
      .add("dirty", dirty)
      .add("wall_ms", wall_ms)
      .add("peak_rss_bytes", peak_rss_bytes)
      .add("exec_pcycles", exec_pcycles)
      .add("verified", verified);
  if (!health_verdict.empty()) {
    o.add("health", health_verdict).add("health_trips", health_trips);
  }
  if (host_cores != 0) {
    o.add("host_cores", static_cast<std::uint64_t>(host_cores))
        .add("host_compiler", host_compiler)
        .add("host_flags", host_flags);
  }
  return o.str();
}

void RunMeta::write(const std::string& path) const {
  util::writeFile(path, toJson() + "\n");
}

}  // namespace nwc::obs
