// MachineConfig <-> INI file mapping, so experiments can be described as
// data ("machine files") instead of code. See tools/nwcsim.cpp.
#pragma once

#include <cmath>
#include <optional>
#include <string>

#include "machine/config.hpp"
#include "util/ini.hpp"

namespace nwc::machine {

/// What a numeric [machine] key may hold: a finite value in [lo, hi], or
/// above lo when `lo_open`.
struct KeyRange {
  double lo;
  double hi;
  bool lo_open = false;

  bool contains(double v) const {
    return std::isfinite(v) && (lo_open ? v > lo : v >= lo) && v <= hi;
  }
};

/// What the [machine] key `key` may hold; nullopt for a boolean or enum
/// key. Throws std::runtime_error on an unknown key.
std::optional<KeyRange> keyRange(const std::string& key);

/// Applies every recognized "[machine] key" of `ini` onto `cfg`.
/// Unknown keys under [machine] and malformed values throw
/// std::runtime_error; a value outside its key's constraint, including an
/// integer past 64 bits, throws std::invalid_argument quoting the value as
/// written. Keys that depend on others (io_nodes <= nodes, the
/// cache geometry, ...) are checked by MachineConfig::validate() once the
/// config is assembled. Other sections are ignored. Returns the number of
/// keys applied.
int applyIni(const util::IniFile& ini, MachineConfig& cfg);

/// Serializes `cfg` as an INI [machine] section (round-trips via applyIni).
util::IniFile toIni(const MachineConfig& cfg);

/// Parses "standard" / "nwcache" / "dcd"; throws on anything else.
SystemKind systemKindFromString(const std::string& s);

/// Parses "optimal" / "naive"; throws on anything else.
Prefetch prefetchFromString(const std::string& s);

}  // namespace nwc::machine
