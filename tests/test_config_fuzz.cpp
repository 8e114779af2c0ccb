// Seeded config fuzz. Every [machine] key of the config_io field table is
// sampled from its constraint: at each boundary, one step outside each
// boundary, and at a seeded point inside. Each sample must either be
// rejected by applyIni()/validate() with a message naming its key, or run
// radix to completion on a paging-bound machine with clean invariants and a
// finite execution time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/runner.hpp"
#include "machine/config_io.hpp"
#include "util/parallel.hpp"

namespace nwc::machine {
namespace {

struct Sample {
  std::string key;
  std::string value;
};

std::string realText(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Integer text for `v`. The seed's bound, 2^64, is spelled as the largest
// 64-bit value.
std::string intText(double v) {
  if (v >= 0x1p64) return "18446744073709551615";
  return std::to_string(static_cast<std::int64_t>(v));
}

template <typename E, std::size_t N>
void addNames(std::vector<Sample>& out, const std::string& key,
              const std::pair<E, const char*> (&names)[N]) {
  for (const auto& [value, name] : names) out.push_back({key, name});
  out.push_back({key, "bogus"});
}

std::vector<Sample> samples() {
  std::mt19937_64 rng(0x5eed);
  std::vector<Sample> out;
  // toIni() renders every key of the table; integers print without a '.'.
  const util::IniFile defaults = toIni(MachineConfig{});
  for (const auto& [full_key, default_text] : defaults.values()) {
    const std::string key = full_key.substr(full_key.find('.') + 1);
    const std::optional<KeyRange> range = keyRange(key);
    if (!range) {
      if (key == "system") addNames(out, key, kSystemKindNames);
      else if (key == "prefetch") addNames(out, key, kPrefetchNames);
      else if (key == "ring_admission") addNames(out, key, kAdmissionKindNames);
      else if (key == "destage_policy") addNames(out, key, kDestageKindNames);
      else {
        for (const char* v : {"true", "false", "maybe"}) out.push_back({key, v});
      }
      continue;
    }
    const KeyRange& r = *range;
    const double lo = r.lo;
    const double hi = r.hi;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    if (default_text.find('.') == std::string::npos) {
      // Inside: the boundaries and a seeded point; outside: one past each.
      const double top = std::min(hi, 1e9);
      std::uniform_int_distribution<std::int64_t> in(static_cast<std::int64_t>(lo),
                                                     static_cast<std::int64_t>(top));
      for (const double v : {lo, hi, static_cast<double>(in(rng)), lo - 1}) {
        out.push_back({key, intText(v)});
      }
      out.push_back({key, hi >= 0x1p64 ? "18446744073709551616" : intText(hi + 1)});
      continue;
    }
    // Reals: the lowest legal value (just above lo when lo is excluded),
    // the highest (a huge finite one when unbounded), a seeded point
    // (log-uniform when unbounded), and one step outside each end.
    const double first = r.lo_open ? std::nextafter(lo, kInf) : lo;
    const double last = std::isinf(hi) ? 1e300 : hi;
    const double mid = std::isinf(hi)
                           ? std::pow(10.0, std::uniform_real_distribution<double>(-3, 9)(rng))
                           : std::uniform_real_distribution<double>(lo, hi)(rng);
    for (const double v : {first, last, mid, r.lo_open ? lo : std::nextafter(lo, -kInf)}) {
      out.push_back({key, realText(v)});
    }
    out.push_back({key, std::isinf(hi) ? "inf" : realText(std::nextafter(hi, kInf))});
  }
  return out;
}

TEST(ConfigFuzz, EverySampleIsRejectedNamingItsKeyOrRunsClean) {
  const SystemKind kSystems[] = {SystemKind::kStandard, SystemKind::kNWCache,
                                 SystemKind::kDCD, SystemKind::kRemoteMemory};
  const Prefetch kPrefetches[] = {Prefetch::kOptimal, Prefetch::kNaive, Prefetch::kHinted};
  MachineConfig base;
  base.memory_per_node = 16384;  // 4 frames per node: every sample pages
  const std::vector<Sample> all = samples();

  // Checking is cheap and runs here; the accepted samples run on a few
  // threads, each on its own machine.
  std::vector<std::pair<Sample, MachineConfig>> accepted;
  int rejected = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Sample& s = all[i];
    // Rotate the machine under the samples, so the ring, DCD, sieve and
    // hinted-prefetch keys are also sampled where they are read.
    MachineConfig c = base;
    c.system = kSystems[i % 4];
    c.prefetch = kPrefetches[i % 3];
    c.ring_admission = (i / 4) % 2 ? AdmissionKind::kSieve : AdmissionKind::kAlways;
    try {
      applyIni(util::IniFile::parse("[machine]\n" + s.key + " = " + s.value + "\n"), c);
      c.validate();
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(s.key), std::string::npos)
          << s.key << " = " << s.value << ": " << e.what();
      ++rejected;
      continue;
    }
    accepted.emplace_back(s, c);
  }
  std::vector<apps::RunSummary> runs(accepted.size());
  util::ParallelExecutor(4).forEachIndex(accepted.size(), [&](std::size_t i) {
    runs[i] = apps::runApp(accepted[i].second, "radix", 0.05);
  });
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(accepted[i].first.key + " = " + accepted[i].first.value + " on " +
                 accepted[i].second.describe());
    EXPECT_TRUE(runs[i].verified);
    EXPECT_EQ(runs[i].invariant_violations, "");
    EXPECT_GT(runs[i].exec_time, 0u);
    EXPECT_LT(runs[i].exec_time, sim::Tick{1} << 53);
  }
  // Both outcomes are exercised: the table is sampled, not only rejected.
  EXPECT_GT(rejected, 50);
  EXPECT_GT(runs.size(), 50u);
  std::printf("%zu samples: %d rejected, %zu ran\n", all.size(), rejected, runs.size());
}

}  // namespace
}  // namespace nwc::machine
