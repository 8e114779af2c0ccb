// INI parser, JSON emitter, and MachineConfig <-> INI round-trips.
#include <gtest/gtest.h>

#include <cmath>

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
  machine::MachineConfig cfg;
  const auto ini = util::IniFile::parse("[machine]\nnodez = 8\n");
  EXPECT_THROW(machine::applyIni(ini, cfg), std::runtime_error);
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

TEST(ConfigIo, EnumParsers) {
  EXPECT_EQ(machine::systemKindFromString("standard"), machine::SystemKind::kStandard);
  EXPECT_EQ(machine::systemKindFromString("nwcache"), machine::SystemKind::kNWCache);
  EXPECT_EQ(machine::systemKindFromString("dcd"), machine::SystemKind::kDCD);
  EXPECT_THROW(machine::systemKindFromString("optical"), std::runtime_error);
  EXPECT_EQ(machine::prefetchFromString("optimal"), machine::Prefetch::kOptimal);
  EXPECT_EQ(machine::prefetchFromString("naive"), machine::Prefetch::kNaive);
  EXPECT_THROW(machine::prefetchFromString("magic"), std::runtime_error);
}

}  // namespace
}  // namespace nwc
