#include "machine/config.hpp"

#include <sstream>

#include "util/enum_names.hpp"

namespace nwc::machine {

const char* toString(Prefetch p) { return util::enumName(kPrefetchNames, p); }

const char* toString(SystemKind s) { return util::enumName(kSystemKindNames, s); }

std::vector<sim::NodeId> MachineConfig::ioNodes() const {
  std::vector<sim::NodeId> out;
  out.reserve(static_cast<std::size_t>(num_io_nodes));
  // Spread I/O-enabled nodes evenly across node ids.
  for (int i = 0; i < num_io_nodes; ++i) {
    out.push_back(static_cast<sim::NodeId>(i * num_nodes / num_io_nodes));
  }
  return out;
}

int MachineConfig::bestMinFree(SystemKind s, Prefetch p) {
  if (s == SystemKind::kNWCache) return 2;  // section 5
  if (s == SystemKind::kDCD) return 4;      // fast write path
  // Standard-style machines: large reserve when reads are fast (optimal or
  // mostly-accurate hints), small when fault latency dominates.
  return p == Prefetch::kNaive ? 4 : 12;
}

MachineConfig& MachineConfig::withSystem(SystemKind s, Prefetch p) {
  system = s;
  prefetch = p;
  min_free_frames = bestMinFree(s, p);
  return *this;
}

std::string MachineConfig::describe() const {
  std::ostringstream os;
  os << toString(system) << "/" << toString(prefetch) << " nodes=" << num_nodes
     << " io=" << num_io_nodes << " mem/node=" << memory_per_node / 1024 << "K"
     << " minfree=" << min_free_frames << " dcache=" << disk_cache_bytes / 1024 << "K";
  if (hasRing()) {
    os << " ring=" << ring_channels << "x" << ring_channel_bytes / 1024 << "K";
  }
  return os.str();
}

}  // namespace nwc::machine
