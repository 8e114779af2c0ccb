// Wormhole-routed 2-D mesh interconnect model.
//
// XY dimension-order routing over directed links, each modelled as a
// `FifoServer`. A message entering the route at `now` reaches link i after
// i hop (router+wire) delays; each link is then held for the message's
// serialization time. This captures FIFO link contention and pipelining
// without per-flit events. Every (src, dst) route is precomputed once as a
// flat list of link indices, so a transfer is one pass over that list.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/fifo_server.hpp"
#include "sim/types.hpp"

namespace nwc::obs {
class EventTimeline;
class MetricsRegistry;
}

namespace nwc::net {

enum class TrafficClass : int {
  kPageRead = 0,   // page request control + page data reply
  kSwapOut,        // swapped-out page data (standard system only)
  kControl,        // ACK/NACK/OK, shootdown, directory traffic
  kCoherence,      // cache-line fills / interventions
  kNumClasses,
};

const char* toString(TrafficClass c);

struct MeshRoutes;  // precomputed XY routes of one node count (mesh.cpp)

struct MeshParams {
  int num_nodes = 8;
  double link_bytes_per_sec = 200e6;  // Table 1: 200 MBytes/sec per link
  double pcycle_ns = 5.0;
  sim::Tick hop_latency = 8;          // router + wire delay per hop
};

class MeshNetwork {
 public:
  explicit MeshNetwork(const MeshParams& p);

  /// Schedules a `bytes`-long message from `src` to `dst` arriving no
  /// earlier than `now`; returns its delivery completion tick.
  /// `src == dst` costs nothing. When `queued_out` is non-null, the summed
  /// per-link queueing delay of this message is added to it (the rest of
  /// `done - now` is hop latency + serialization, i.e. service time).
  sim::Tick transfer(sim::Tick now, sim::NodeId src, sim::NodeId dst,
                     std::uint64_t bytes, TrafficClass cls,
                     sim::Tick* queued_out = nullptr);

  /// Route length in hops.
  int hops(sim::NodeId src, sim::NodeId dst) const;

  /// Serialization time of `bytes` on one link.
  sim::Tick serializationTicks(std::uint64_t bytes) const;

  int width() const { return width_; }
  int height() const { return height_; }

  // --- statistics -----------------------------------------------------
  std::uint64_t messages(TrafficClass c) const;
  std::uint64_t bytes(TrafficClass c) const;
  std::uint64_t totalBytes() const;

  /// Aggregate busy ticks across all links (occupancy proxy).
  sim::Tick totalLinkBusyTicks() const;
  /// Aggregate queueing delay across all links.
  sim::Tick totalLinkQueuedTicks() const;

  /// Number of directed links that have carried at least one message.
  std::size_t linkCount() const;

  /// Registers mesh statistics under `prefix` (e.g. "mesh.").
  void publishMetrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

  /// Attaches an event timeline; every transfer() then records an async
  /// span on Layer::kMesh (may be null to detach).
  void setTimeline(obs::EventTimeline* tl) { timeline_ = tl; }

 private:
  struct ClassStats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };

  MeshParams params_;
  int width_;
  int height_;
  // Directed links between grid-adjacent routers, stored densely: four
  // outgoing slots per node (E, W, S, N) at (fy*width+fx)*4 + direction.
  std::vector<sim::FifoServer> links_;
  // Route of (src, dst): route_links_[route_off_[src*n+dst] ..
  // route_off_[src*n+dst+1]), X hops first, then Y. Both point into
  // `routes_`, which meshes of one node count built on a thread share.
  std::shared_ptr<const MeshRoutes> routes_;
  const std::uint32_t* route_off_ = nullptr;
  const std::uint32_t* route_links_ = nullptr;
  ClassStats stats_[static_cast<int>(TrafficClass::kNumClasses)];
  obs::EventTimeline* timeline_ = nullptr;
  // serializationTicks memo (see mesh.cpp); ~0 = empty slot.
  mutable std::uint64_t memo_bytes_[2] = {~0ull, ~0ull};
  mutable sim::Tick memo_ticks_[2] = {0, 0};
};

}  // namespace nwc::net
