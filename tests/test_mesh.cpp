// MeshNetwork: topology, routing, contention, per-class accounting.
#include <gtest/gtest.h>

#include <cstdlib>

#include "net/mesh.hpp"

namespace nwc::net {
namespace {

MeshParams params8() {
  MeshParams p;
  p.num_nodes = 8;
  p.link_bytes_per_sec = 200e6;
  p.pcycle_ns = 5.0;
  p.hop_latency = 8;
  return p;
}

TEST(Mesh, EightNodesFormA4x2Grid) {
  MeshNetwork m(params8());
  EXPECT_EQ(m.width() * m.height(), 8);
  EXPECT_GE(m.width(), m.height());
}

TEST(Mesh, HopCountsAreManhattan) {
  MeshNetwork m(params8());
  EXPECT_EQ(m.hops(0, 0), 0);
  EXPECT_EQ(m.hops(0, 1), 1);
  // Opposite corners of a 4x2: 3 + 1 = 4 hops.
  EXPECT_EQ(m.hops(0, 7), 4);
  EXPECT_EQ(m.hops(7, 0), 4);
}

TEST(Mesh, LocalTransferIsFree) {
  MeshNetwork m(params8());
  EXPECT_EQ(m.transfer(100, 3, 3, 4096, TrafficClass::kPageRead), 100u);
}

TEST(Mesh, SingleHopLatency) {
  MeshNetwork m(params8());
  // 1 hop: hop_latency + serialization(4 KB @ 200 MB/s) = 8 + 4096.
  EXPECT_EQ(m.transfer(0, 0, 1, 4096, TrafficClass::kPageRead), 8u + 4096u);
}

TEST(Mesh, MultiHopIsPipelined) {
  MeshNetwork m(params8());
  // Wormhole: total = hops * hop_latency + one serialization time.
  const int h = m.hops(0, 7);
  const sim::Tick t = m.transfer(0, 0, 7, 4096, TrafficClass::kPageRead);
  EXPECT_EQ(t, static_cast<sim::Tick>(h) * 8u + 4096u);

  // Every route of an idle 8x4 and 3x2 mesh: a Manhattan number of hops,
  // each over its own link.
  for (const int n : {32, 6}) {
    MeshParams p = params8();
    p.num_nodes = n;
    for (sim::NodeId src = 0; src < n; ++src) {
      for (sim::NodeId dst = 0; dst < n; ++dst) {
        MeshNetwork idle(p);
        const int w = idle.width();
        const int hops = std::abs(src % w - dst % w) + std::abs(src / w - dst / w);
        const sim::Tick ser = idle.serializationTicks(64);
        EXPECT_EQ(idle.hops(src, dst), hops);
        const sim::Tick done = idle.transfer(1000, src, dst, 64, TrafficClass::kCoherence);
        const sim::Tick want =
            src == dst ? 1000u : 1000u + static_cast<sim::Tick>(hops) * 8u + ser;
        EXPECT_EQ(done, want) << n << " nodes, " << src << " -> " << dst;
        EXPECT_EQ(idle.linkCount(), static_cast<std::size_t>(hops));
        EXPECT_EQ(idle.totalLinkBusyTicks(), static_cast<sim::Tick>(hops) * ser);
      }
    }
  }
}

TEST(Mesh, ContentionQueuesOnSharedLink) {
  MeshNetwork m(params8());
  const sim::Tick t1 = m.transfer(0, 0, 1, 4096, TrafficClass::kPageRead);
  const sim::Tick t2 = m.transfer(0, 0, 1, 4096, TrafficClass::kPageRead);
  EXPECT_EQ(t2, t1 + 4096u);  // second message waits for the link
}

TEST(Mesh, DisjointPathsDoNotContend) {
  MeshNetwork m(params8());
  const sim::Tick t1 = m.transfer(0, 0, 1, 4096, TrafficClass::kPageRead);
  const sim::Tick t2 = m.transfer(0, 2, 3, 4096, TrafficClass::kPageRead);
  EXPECT_EQ(t1, t2);
}

TEST(Mesh, OppositeDirectionsAreSeparateLinks) {
  MeshNetwork m(params8());
  const sim::Tick t1 = m.transfer(0, 0, 1, 4096, TrafficClass::kPageRead);
  const sim::Tick t2 = m.transfer(0, 1, 0, 4096, TrafficClass::kPageRead);
  EXPECT_EQ(t1, t2);
}

TEST(Mesh, PerClassAccounting) {
  MeshNetwork m(params8());
  m.transfer(0, 0, 1, 100, TrafficClass::kControl);
  m.transfer(0, 0, 1, 4096, TrafficClass::kSwapOut);
  m.transfer(0, 1, 2, 4096, TrafficClass::kSwapOut);
  EXPECT_EQ(m.messages(TrafficClass::kControl), 1u);
  EXPECT_EQ(m.bytes(TrafficClass::kControl), 100u);
  EXPECT_EQ(m.messages(TrafficClass::kSwapOut), 2u);
  EXPECT_EQ(m.bytes(TrafficClass::kSwapOut), 8192u);
  EXPECT_EQ(m.totalBytes(), 8292u);
}

TEST(Mesh, LinkBusyStatsAccumulate) {
  MeshNetwork m(params8());
  EXPECT_EQ(m.totalLinkBusyTicks(), 0u);
  m.transfer(0, 0, 7, 4096, TrafficClass::kPageRead);
  EXPECT_EQ(m.totalLinkBusyTicks(), 4u * 4096u);  // 4 links held
}

TEST(Mesh, VariousNodeCountsFactorize) {
  for (int n : {2, 4, 6, 8, 9, 12, 16}) {
    MeshParams p = params8();
    p.num_nodes = n;
    MeshNetwork m(p);
    EXPECT_EQ(m.width() * m.height(), n) << "n=" << n;
  }
}

TEST(Mesh, ToStringNames) {
  EXPECT_STREQ(toString(TrafficClass::kPageRead), "page_read");
  EXPECT_STREQ(toString(TrafficClass::kSwapOut), "swap_out");
  EXPECT_STREQ(toString(TrafficClass::kControl), "control");
  EXPECT_STREQ(toString(TrafficClass::kCoherence), "coherence");
}

}  // namespace
}  // namespace nwc::net
