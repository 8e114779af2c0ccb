// Workload front end: the WorkloadSource seam (kernel runs must be
// byte-identical through it), the synthetic generator (determinism, zipf
// shape, spec round-trips), the block-trace encodings, and end-to-end
// block serving on every system.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/batch.hpp"
#include "apps/block_trace.hpp"
#include "apps/registry.hpp"
#include "apps/runner.hpp"
#include "apps/synthetic.hpp"
#include "apps/workload.hpp"
#include "util/rand.hpp"

namespace nwc::apps {
namespace {

constexpr double kScale = 0.05;

machine::MachineConfig smallConfig(machine::SystemKind sys) {
  machine::MachineConfig cfg;
  cfg.withSystem(sys, machine::Prefetch::kOptimal);
  cfg.memory_per_node = 32768;
  return cfg;
}


// --- the seam: runApp must equal an explicit KernelWorkload ---------------

TEST(WorkloadSeam, KernelThroughSeamMatchesRunApp) {
  for (const auto& [sys, name] : machine::kSystemKindNames) {
    const auto cfg = smallConfig(sys);
    const RunSummary direct = runApp(cfg, "radix", kScale);
    const AppInfo* info = findApp("radix");
    ASSERT_NE(info, nullptr);
    KernelWorkload src(info->name, info->make(kScale));
    ObsSinks sinks;
    const RunSummary seamed = runWorkload(cfg, src, sinks);
    EXPECT_EQ(summaryJson(seamed, kScale), summaryJson(direct, kScale))
        << cfg.describe();
  }
}

TEST(WorkloadSeam, UnknownAppStillThrows) {
  EXPECT_THROW((void)runApp(smallConfig(machine::SystemKind::kStandard),
                            "no-such-app", kScale),
               std::invalid_argument);
}

// --- spec parsing ---------------------------------------------------------

TEST(SyntheticSpecParse, CanonicalRoundTrips) {
  const SyntheticSpec a = SyntheticSpec::parse(
      "synth:clients=3;objects=100;ops=50;read_ratio=0.5;zipf_theta=1.1;"
      "burst_prob=0.1;burst_len=4;diurnal_amp=0.25;diurnal_period=9999;"
      "think_mean=123.5;seed=42");
  const SyntheticSpec b = SyntheticSpec::parse(a.canonical());
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(b.clients, 3u);
  EXPECT_EQ(b.seed, 42u);
  EXPECT_DOUBLE_EQ(b.read_ratio, 0.5);
  // Bare "synth" means all defaults; "theta" aliases "zipf_theta".
  EXPECT_EQ(SyntheticSpec::parse("synth").canonical(),
            SyntheticSpec().canonical());
  EXPECT_DOUBLE_EQ(SyntheticSpec::parse("synth:theta=1.3").zipf_theta, 1.3);
}

TEST(SyntheticSpecParse, RejectsMalformedSpecs) {
  EXPECT_THROW((void)SyntheticSpec::parse("synth:bogus=1"),
               std::invalid_argument);
  EXPECT_THROW((void)SyntheticSpec::parse("synth:clients=0"),
               std::invalid_argument);
  EXPECT_THROW((void)SyntheticSpec::parse("synth:read_ratio=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)SyntheticSpec::parse("synth:clients"),
               std::invalid_argument);
  // Non-finite numbers are rejected, naming the key: read_ratio=nan used to
  // give all writes, and think_mean=inf cast infinity to an integer gap.
  for (const char* kv : {"think_mean=nan", "think_mean=inf", "diurnal_amp=nan",
                         "zipf_theta=nan", "read_ratio=nan", "burst_prob=nan",
                         "zipf_theta=-inf", "read_ratio=infinity"}) {
    const std::string key = std::string(kv).substr(0, std::string(kv).find('='));
    try {
      (void)SyntheticSpec::parse(std::string("synth:") + kv);
      ADD_FAILURE() << kv << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
  // Sizes past the caps fail naming the field instead of dying in
  // max_size() or bad_alloc.
  for (const char* kv : {"objects=18446744073709551615", "objects=1048577",
                         "clients=65537", "clients=99999999999999",
                         "ops=16777217", "clients=32;ops=524289"}) {
    const std::string body(kv);
    const std::string last = body.substr(body.rfind(';') + 1);
    const std::string key = last.substr(0, last.find('='));
    try {
      (void)SyntheticSpec::parse("synth:" + body);
      ADD_FAILURE() << kv << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
  // The longest gap a draw can produce, 37 x think_mean / (1 - diurnal_amp),
  // must stay within kMaxBlockGap: think_mean=1e30 used to cast an
  // out-of-range double to an integer gap (undefined behaviour).
  for (const char* kv : {"think_mean=1e30", "think_mean=29716530481",
                         "think_mean=14858265241;diurnal_amp=0.5",
                         "diurnal_amp=0.99999999"}) {
    const std::string body(kv);
    const std::string last = body.substr(body.rfind(';') + 1);
    const std::string key = last.substr(0, last.find('='));
    try {
      (void)SyntheticSpec::parse("synth:" + body);
      ADD_FAILURE() << kv << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
  // The caps admit their edges and the largest specs in use (the
  // blockserve-zipf benchmark).
  EXPECT_NO_THROW((void)SyntheticSpec::parse("synth:clients=32;objects=8192;ops=6000"));
  EXPECT_NO_THROW((void)SyntheticSpec::parse(
      "synth:objects=1048576;clients=65536;ops=256"));
  EXPECT_NO_THROW((void)SyntheticSpec::parse("synth:think_mean=29716530480"));
  EXPECT_NO_THROW(
      (void)SyntheticSpec::parse("synth:think_mean=14858265240;diurnal_amp=0.5"));
  EXPECT_NO_THROW((void)SyntheticSpec::parse("synth:diurnal_amp=0.9999999"));
}

TEST(WorkloadSpecs, SpecErrorClassifiesAllKinds) {
  EXPECT_TRUE(workloadSpecError("radix").empty());
  EXPECT_TRUE(workloadSpecError("synth:clients=2").empty());
  EXPECT_FALSE(workloadSpecError("no-such-app").empty());
  EXPECT_FALSE(workloadSpecError("synth:bogus=1").empty());
  EXPECT_FALSE(workloadSpecError("trace:/no/such/file.nwcb").empty());
  EXPECT_TRUE(isWorkloadSpec("synth"));
  EXPECT_TRUE(isWorkloadSpec("trace:x"));
  EXPECT_FALSE(isWorkloadSpec("radix"));
}

// --- generator ------------------------------------------------------------

SyntheticSpec smallSpec() {
  SyntheticSpec s;
  s.clients = 4;
  s.objects = 512;
  s.ops = 400;
  s.seed = 7;
  return s;
}

TEST(BlockTraceGenerator, IsDeterministic) {
  const BlockTrace a = generateBlockTrace(smallSpec());
  const BlockTrace b = generateBlockTrace(smallSpec());
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t c = 0; c < a.clients.size(); ++c) {
    ASSERT_EQ(a.clients[c].size(), b.clients[c].size());
    for (std::size_t i = 0; i < a.clients[c].size(); ++i) {
      EXPECT_EQ(a.clients[c][i].gap, b.clients[c][i].gap);
      EXPECT_EQ(a.clients[c][i].obj, b.clients[c][i].obj);
      EXPECT_EQ(a.clients[c][i].write, b.clients[c][i].write);
    }
  }
}

TEST(BlockTraceGenerator, AddingClientsPreservesExistingStreams) {
  // Per-client forked RNG streams: growing the client count must not
  // perturb the requests of the clients that were already there.
  SyntheticSpec s = smallSpec();
  const BlockTrace small = generateBlockTrace(s);
  s.clients += 2;
  const BlockTrace big = generateBlockTrace(s);
  for (std::size_t c = 0; c < small.clients.size(); ++c) {
    ASSERT_EQ(small.clients[c].size(), big.clients[c].size());
    for (std::size_t i = 0; i < small.clients[c].size(); ++i) {
      EXPECT_EQ(small.clients[c][i].obj, big.clients[c][i].obj) << c;
    }
  }
}

TEST(BlockTraceGenerator, ScaleShrinksOpsAndSeedChangesStreams) {
  const BlockTrace full = generateBlockTrace(smallSpec());
  const BlockTrace half = generateBlockTrace(smallSpec(), 0.5);
  EXPECT_EQ(half.clients[0].size(), full.clients[0].size() / 2);
  SyntheticSpec s = smallSpec();
  s.seed = 8;
  const BlockTrace other = generateBlockTrace(s);
  bool differs = false;
  for (std::size_t i = 0; i < other.clients[0].size() && !differs; ++i) {
    differs = other.clients[0][i].obj != full.clients[0][i].obj;
  }
  EXPECT_TRUE(differs);
}

TEST(BlockTraceGenerator, ZipfShapeMatchesTheta) {
  // The estimator recovers the configured skew from generated traffic,
  // and a near-uniform spec estimates near zero.
  SyntheticSpec s = smallSpec();
  s.ops = 5000;
  s.zipf_theta = 0.9;
  const BlockTraceStats skewed = summarizeBlockTrace(generateBlockTrace(s));
  EXPECT_NEAR(skewed.est_zipf_theta, 0.9, 0.2);
  s.zipf_theta = 0.0;
  const BlockTraceStats flat = summarizeBlockTrace(generateBlockTrace(s));
  EXPECT_LT(flat.est_zipf_theta, 0.3);
  EXPECT_GT(skewed.est_zipf_theta, flat.est_zipf_theta);
}

TEST(ZipfianSampler, CdfIsMonotoneAndHeadHeavy) {
  util::ZipfianSampler z(100, 1.0);
  EXPECT_EQ(z.size(), 100u);
  EXPECT_EQ(z.sample(0.0), 0u);
  EXPECT_EQ(z.sample(0.999999), 99u);
  // With theta=1 over n=100, rank 0 holds ~1/H(100) ~ 19% of the mass.
  std::uint64_t head = 0;
  util::Xoshiro256ss rng(123);
  for (int i = 0; i < 10000; ++i) {
    if (z.sample(rng.uniform()) == 0) ++head;
  }
  EXPECT_NEAR(static_cast<double>(head) / 10000.0, 0.19, 0.03);
}

// The guide table only narrows the search: every u must map to the rank a
// binary search over the whole CDF gives, including u on and beside every
// bucket edge.
TEST(ZipfianSampler, GuideTableMatchesBinarySearch) {
  constexpr std::size_t kG = util::ZipfianSampler::kGuide;
  for (const std::size_t n : {1u, 2u, 3u, 1000u, 8192u}) {
    for (const double theta : {0.0, 0.5, 0.9, 1.0, 1.2}) {
      std::vector<double> cdf(n);
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
        cdf[i] = sum;
      }
      for (double& c : cdf) c /= sum;
      auto want = [&](double u) {
        const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
        return it == cdf.end() ? n - 1 : static_cast<std::size_t>(it - cdf.begin());
      };
      const util::ZipfianSampler z(n, theta);
      std::vector<double> us = {0.0, std::nextafter(1.0, 0.0)};
      for (std::size_t k = 0; k <= kG; ++k) {
        const double edge = static_cast<double>(k) / static_cast<double>(kG);
        us.push_back(std::nextafter(edge, 0.0));
        if (edge < 1.0) us.push_back(edge);
        if (edge < 1.0) us.push_back(std::nextafter(edge, 1.0));
      }
      util::Xoshiro256ss rng(n * 31 + static_cast<std::uint64_t>(theta * 10));
      for (int i = 0; i < 100000; ++i) us.push_back(rng.uniform());
      for (const double u : us) {
        ASSERT_EQ(z.sample(u), want(u)) << "n=" << n << " theta=" << theta
                                        << " u=" << u;
      }
    }
  }
}

// --- encodings ------------------------------------------------------------

TEST(BlockTraceFormat, TextRoundTrips) {
  const BlockTrace t = generateBlockTrace(smallSpec());
  const std::string path = "/tmp/nwc_block_roundtrip.nwcbt";
  writeBlockTrace(path, t);
  const BlockTrace rt = readBlockTrace(path);
  EXPECT_EQ(rt.objects, t.objects);
  ASSERT_EQ(rt.clients.size(), t.clients.size());
  for (std::size_t c = 0; c < t.clients.size(); ++c) {
    ASSERT_EQ(rt.clients[c].size(), t.clients[c].size());
    for (std::size_t i = 0; i < t.clients[c].size(); ++i) {
      EXPECT_EQ(rt.clients[c][i].gap, t.clients[c][i].gap);
      EXPECT_EQ(rt.clients[c][i].obj, t.clients[c][i].obj);
      EXPECT_EQ(rt.clients[c][i].write, t.clients[c][i].write);
    }
  }
  EXPECT_TRUE(workloadSpecError("trace:" + path).empty());
}

// readBlockTrace must throw for `content`, with `want` in the message, and
// a "trace:" spec naming the file must fail the up-front spec check alike.
void expectRejected(const std::string& content, const std::string& want) {
  const std::string path = "/tmp/nwc_block_corrupt.nwcbt";
  std::ofstream(path, std::ios::binary) << content;
  try {
    (void)readBlockTrace(path);
    ADD_FAILURE() << "accepted: " << content.substr(0, 80);
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
  }
  const std::string err = workloadSpecError("trace:" + path);
  EXPECT_NE(err.find(want), std::string::npos) << err;
}

TEST(BlockTraceFormat, RejectsCorruptFiles) {
  const BlockTrace t = generateBlockTrace(smallSpec());
  const std::string path = "/tmp/nwc_block_corrupt.nwcbt";
  writeBlockTrace(path, t);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Truncation mid-stream must throw, not silently shorten the trace: cut
  // after the tenth op line of client 1.
  std::size_t cut = bytes.find("client 1 ");
  for (int i = 0; i < 11; ++i) cut = bytes.find('\n', cut) + 1;
  expectRejected(bytes.substr(0, cut), "truncated op list");
  // Arbitrary non-trace content, and the retired binary encoding, are
  // rejected up front, naming the header a trace must start with.
  expectRejected("not a trace at all", "# nwc-block-trace-v1");
  expectRejected(std::string("NWCB\x01\x10\x01\x01\x02\x03", 10),
                 "# nwc-block-trace-v1");
  EXPECT_THROW((void)readBlockTrace("/no/such/file.nwcbt"), std::runtime_error);
  // Declared sizes past the caps fail naming the field, before anything is
  // sized from them (these used to die in bad_alloc or max_size()).
  const std::string head = "# nwc-block-trace-v1\n";
  expectRejected(head + "objects 18446744073709551615\nclients 1\n", "objects");
  expectRejected(head + "objects 16\nclients 99999999999999\n", "clients");
  expectRejected(head + "objects 16\nclients 1\nclient 0 999999999999999\n",
                 "client 0 declares");
  // An op line is exactly "gap obj r|w": no sign, no fourth token, and a
  // gap below 2^40 (-1 used to parse as 2^64 - 1 and run for 1.8e13
  // Mpcycles).
  const std::string one = head + "objects 16\nclients 2\nclient 0 0\nclient 1 1\n";
  expectRejected(one + "1099511627776 1 r\n", "client 1: gap 1099511627776 exceeds");
  expectRejected(one + "18446744073709551615 1 r\n",
                 "client 1: gap 18446744073709551615 exceeds");
  expectRejected(one + "99999999999999999999 1 r\n", "client 1: gap 99999999999999999999");
  for (const char* op : {"-1 1 r", "+5 1 r", "1 2 r x", "1 -2 r", "1 2 rw", "1 2"}) {
    expectRejected(one + op + "\n", "client 1: expected 'gap obj r|w'");
  }
  // The edges are accepted.
  std::ofstream(path, std::ios::binary) << one << "1099511627775 15 w\n";
  const BlockTrace edge = readBlockTrace(path);
  ASSERT_EQ(edge.clients.size(), 2u);
  ASSERT_EQ(edge.clients[1].size(), 1u);
  EXPECT_EQ(edge.clients[1][0].gap, kMaxBlockGap);
  EXPECT_EQ(edge.clients[1][0].obj, 15u);
  EXPECT_TRUE(edge.clients[1][0].write);
}

// --- end-to-end serving ---------------------------------------------------

std::string runSpec(const machine::MachineConfig& cfg, const std::string& spec) {
  auto src = makeWorkload(spec, 1.0);
  const RunSummary s = runWorkload(cfg, *src, ObsSinks{});
  EXPECT_TRUE(s.verified) << spec << " on " << cfg.describe();
  return summaryJson(s, 1.0);
}

TEST(BlockServe, RunsVerifiedOnAllSystems) {
  const std::string spec = "synth:clients=4;objects=512;ops=200;seed=7";
  for (const auto& [sys, name] : machine::kSystemKindNames) {
    const std::string json = runSpec(smallConfig(sys), spec);
    // Block traffic reaches the metrics layer.
    EXPECT_NE(json.find("\"block_reads\":"), std::string::npos);
  }
}

TEST(BlockServe, DeterministicAcrossRepeatRuns) {
  const std::string spec = "synth:clients=4;objects=512;ops=200;seed=7";
  const auto cfg = smallConfig(machine::SystemKind::kNWCache);
  const std::string first = runSpec(cfg, spec);
  EXPECT_EQ(runSpec(cfg, spec), first);
}

TEST(BlockServe, FileServeMatchesLiveGeneration) {
  const std::string spec = "synth:clients=4;objects=512;ops=200;seed=7";
  const std::string path = "/tmp/nwc_block_serve.nwcbt";
  writeBlockTrace(path, generateBlockTrace(SyntheticSpec::parse(spec)));
  const auto cfg = smallConfig(machine::SystemKind::kNWCache);
  ObsSinks sinks;
  auto live = makeWorkload(spec, 1.0);
  auto filed = makeWorkload("trace:" + path, 1.0);
  const RunSummary a = runWorkload(cfg, *live, sinks);
  const RunSummary b = runWorkload(cfg, *filed, sinks);
  // Names differ (spec vs path); everything else must match exactly.
  EXPECT_EQ(a.metrics.faults, b.metrics.faults);
  EXPECT_EQ(a.metrics.swap_outs, b.metrics.swap_outs);
  EXPECT_EQ(a.metrics.block_reads, b.metrics.block_reads);
  EXPECT_EQ(a.metrics.block_writes, b.metrics.block_writes);
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
}

TEST(BlockServe, MakeWorkloadRejectsBadSpecs) {
  EXPECT_THROW((void)makeWorkload("trace:/no/such/file.nwcb", 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)makeWorkload("synth:bogus=1", 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace nwc::apps
