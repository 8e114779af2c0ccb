// INI parser, JSON emitter, and MachineConfig <-> INI round-trips.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "machine/config_io.hpp"
#include "util/ini.hpp"
#include "util/json.hpp"

namespace nwc {
namespace {

TEST(Ini, ParsesSectionsAndKeys) {
  const auto ini = util::IniFile::parse(
      "top = 1\n"
      "[machine]\n"
      "nodes = 8   # trailing comment\n"
      "; full-line comment\n"
      "\n"
      "memory_per_node = 262144\n"
      "[other]\n"
      "x = hello world\n");
  EXPECT_EQ(ini.size(), 4u);
  EXPECT_EQ(*ini.get("top"), "1");
  EXPECT_EQ(*ini.getInt("machine.nodes"), 8);
  EXPECT_EQ(*ini.getInt("machine.memory_per_node"), 262144);
  EXPECT_EQ(*ini.get("other.x"), "hello world");
  EXPECT_FALSE(ini.get("machine.missing").has_value());
}

TEST(Ini, TypedAccessors) {
  const auto ini = util::IniFile::parse(
      "[a]\nd = 2.5\ni = -7\nb1 = true\nb0 = no\nbad = zz\n");
  EXPECT_DOUBLE_EQ(*ini.getDouble("a.d"), 2.5);
  EXPECT_EQ(*ini.getInt("a.i"), -7);
  EXPECT_TRUE(*ini.getBool("a.b1"));
  EXPECT_FALSE(*ini.getBool("a.b0"));
  EXPECT_THROW((void)ini.getInt("a.bad"), std::runtime_error);
  EXPECT_THROW((void)ini.getBool("a.bad"), std::runtime_error);
}

TEST(Ini, RejectsMalformedInput) {
  EXPECT_THROW(util::IniFile::parse("[unterminated\n"), std::runtime_error);
  EXPECT_THROW(util::IniFile::parse("no equals sign\n"), std::runtime_error);
  EXPECT_THROW(util::IniFile::parse("= value\n"), std::runtime_error);
}

TEST(Ini, SerializeRoundTrips) {
  util::IniFile a;
  a.set("machine.nodes", "8");
  a.set("machine.system", "nwcache");
  a.set("top", "x");
  const auto b = util::IniFile::parse(a.serialize());
  EXPECT_EQ(a.values(), b.values());
}

TEST(Ini, Trim) {
  EXPECT_EQ(util::trim("  a b \t"), "a b");
  EXPECT_EQ(util::trim("\r\n"), "");
  EXPECT_EQ(util::trim("x"), "x");
}

TEST(Ini, SplitListTrimsAndDropsEmptyItems) {
  EXPECT_EQ(util::splitList(" sor, mg ,,radix,"),
            (std::vector<std::string>{"sor", "mg", "radix"}));
  EXPECT_TRUE(util::splitList("").empty());
  // Workload specs keep their ';'-separated knobs in one item.
  EXPECT_EQ(util::splitList("synth:clients=2;ops=9,lu"),
            (std::vector<std::string>{"synth:clients=2;ops=9", "lu"}));
}

TEST(Ini, PositiveFlagIsStrict) {
  EXPECT_EQ(util::positiveFlag("--scale", "0.25"), 0.25);
  EXPECT_EQ(util::positiveFlag("--jobs", "4", true, 4096), 4.0);
  for (const char* bad : {"", "abc", "2x", "0", "-1", "nan", "inf"}) {
    EXPECT_THROW(util::positiveFlag("--scale", bad), std::invalid_argument) << bad;
  }
  // A bounded fraction (every front end's scale) names its range.
  EXPECT_EQ(util::positiveFlag("--scale", "1", false, 1.0), 1.0);
  for (const char* bad : {"1.5", "1.0000001", "inf", "nan", "0"}) {
    try {
      util::positiveFlag("--scale", bad, false, 1.0);
      ADD_FAILURE() << "accepted --scale=" << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("--scale must be a number in (0, 1], got '") + bad + "'");
    }
  }
  for (const char* bad : {"1.5", "4097", "0"}) {
    try {
      util::positiveFlag("--jobs", bad, true, 4096);
      ADD_FAILURE() << "accepted --jobs=" << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("--jobs must be a whole number in [1, 4096], got '") + bad + "'");
    }
  }
}

TEST(Ini, SeedValueTakesEvery64BitSeedAndNothingElse) {
  EXPECT_EQ(util::seedValue("--seed", "0"), 0u);
  EXPECT_EQ(util::seedValue("--seed", "0x5eed"), 0x5eedu);
  EXPECT_EQ(util::seedValue("--seed", "18446744073709551615"), ~std::uint64_t{0});
  for (const char* bad : {"", "xyz", "7q", "-1", "18446744073709551616", "1.0"}) {
    EXPECT_THROW(util::seedValue("--seed", bad), std::invalid_argument) << bad;
  }
}

TEST(Json, EscapesAndTypes) {
  util::JsonObject o;
  o.add("s", "a\"b\\c\nd").add("i", std::int64_t{-3}).add("u", std::uint64_t{7});
  o.add("d", 2.5).add("b", true);
  EXPECT_EQ(o.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-3,\"u\":7,\"d\":2.5,\"b\":true}");
}

TEST(Json, NonFiniteBecomesNull) {
  util::JsonObject o;
  o.add("x", std::nan(""));
  EXPECT_EQ(o.str(), "{\"x\":null}");
}

TEST(Json, RawAndArray) {
  util::JsonObject o;
  o.addRaw("arr", util::jsonArray({"1", "2"}));
  EXPECT_EQ(o.str(), "{\"arr\":[1,2]}");
}

TEST(ConfigIo, AppliesMachineSection) {
  machine::MachineConfig cfg;
  const auto ini = util::IniFile::parse(
      "[machine]\n"
      "system = nwcache\n"
      "prefetch = naive\n"
      "nodes = 4\n"
      "io_nodes = 2\n"
      "memory_per_node = 131072\n"
      "ring_channel_bytes = 32768\n"
      "ring_victim_reads = false\n"
      "compute_cycle_scale = 2.0\n");
  const int applied = machine::applyIni(ini, cfg);
  EXPECT_EQ(applied, 8);
  EXPECT_EQ(cfg.system, machine::SystemKind::kNWCache);
  EXPECT_EQ(cfg.prefetch, machine::Prefetch::kNaive);
  EXPECT_EQ(cfg.num_nodes, 4);
  EXPECT_EQ(cfg.num_io_nodes, 2);
  EXPECT_EQ(cfg.memory_per_node, 131072u);
  EXPECT_EQ(cfg.ring_channel_bytes, 32768u);
  EXPECT_FALSE(cfg.ring_victim_reads);
  EXPECT_DOUBLE_EQ(cfg.compute_cycle_scale, 2.0);
}

TEST(ConfigIo, UnknownKeyThrows) {
  // A typo, and the four write-cache policy keys the table no longer has
  // (spelled in two pieces so the removed names appear nowhere else).
  for (const std::string key : {"nodez", "ring_" "admission", "destage_" "policy",
                                 "sie" "ve_threshold", "policy_" "ghost_pages"}) {
    machine::MachineConfig cfg;
    const auto ini = util::IniFile::parse("[machine]\n" + key + " = 2\n");
    try {
      machine::applyIni(ini, cfg);
      ADD_FAILURE() << "accepted " << key;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
}

TEST(ConfigIo, NonMachineSectionsIgnored) {
  machine::MachineConfig cfg;
  const auto ini = util::IniFile::parse("[workload]\napp = sor\n");
  EXPECT_EQ(machine::applyIni(ini, cfg), 0);
}

TEST(ConfigIo, RoundTripPreservesEveryField) {
  machine::MachineConfig a;
  a.withSystem(machine::SystemKind::kDCD, machine::Prefetch::kNaive);
  a.num_nodes = 16;
  a.ring_channel_bytes = 128 * 1024;
  a.seed = 9999;
  a.ring_bypass_network = false;
  a.l1.size_bytes = 4096;

  machine::MachineConfig b;
  machine::applyIni(machine::toIni(a), b);

  EXPECT_EQ(machine::toIni(a).serialize(), machine::toIni(b).serialize());
  EXPECT_EQ(b.system, machine::SystemKind::kDCD);
  EXPECT_EQ(b.num_nodes, 16);
  EXPECT_EQ(b.ring_channel_bytes, 128u * 1024u);
  EXPECT_EQ(b.seed, 9999u);
  EXPECT_FALSE(b.ring_bypass_network);
  EXPECT_EQ(b.l1.size_bytes, 4096u);
}

TEST(ConfigIo, EverySeedRoundTrips) {
  // Seeds span all 64 bits (batch seeds are read with strtoull); past them
  // the value is out of the key's range.
  machine::MachineConfig a;
  a.seed = 18446744073709551615u;
  machine::MachineConfig b;
  machine::applyIni(machine::toIni(a), b);
  EXPECT_EQ(b.seed, a.seed);
  EXPECT_THROW(machine::applyIni(
                   util::IniFile::parse("[machine]\nseed = 18446744073709551616\n"), b),
               std::invalid_argument);
}

// An unknown enum value names its key and every accepted name, whether it
// comes through the parser or a [machine] section (nwcsim --set).
TEST(ConfigIo, EnumParsers) {
  EXPECT_EQ(machine::systemKindFromString("standard"), machine::SystemKind::kStandard);
  EXPECT_EQ(machine::systemKindFromString("nwcache"), machine::SystemKind::kNWCache);
  EXPECT_EQ(machine::systemKindFromString("dcd"), machine::SystemKind::kDCD);
  EXPECT_EQ(machine::prefetchFromString("optimal"), machine::Prefetch::kOptimal);
  EXPECT_EQ(machine::prefetchFromString("naive"), machine::Prefetch::kNaive);
  auto message = [](auto&& parse) {
    try {
      parse();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string systems = "unknown system: remote (one of: standard, nwcache, dcd)";
  const std::string prefetches = "unknown prefetch: magic (one of: optimal, naive, hinted)";
  EXPECT_EQ(message([] { machine::systemKindFromString("remote"); }), systems);
  EXPECT_EQ(message([] { machine::prefetchFromString("magic"); }), prefetches);
  machine::MachineConfig cfg;
  EXPECT_EQ(message([&] {
              machine::applyIni(util::IniFile::parse("[machine]\nsystem = remote\n"), cfg);
            }),
            systems);
  EXPECT_EQ(message([&] {
              machine::applyIni(util::IniFile::parse("[machine]\nprefetch = magic\n"), cfg);
            }),
            prefetches);
}

}  // namespace
}  // namespace nwc
