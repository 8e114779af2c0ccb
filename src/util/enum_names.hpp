// Shared enum <-> name table helpers. Each enum keeps one constexpr
// value/name table (the single source of truth); enumName renders a value
// and enumFromName parses one, so toString/fromString pairs never drift
// apart and new enums don't copy the lookup loops.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace nwc::util {

/// Renders `v` via its name table; "?" for values not in the table.
template <typename E, std::size_t N>
constexpr const char* enumName(const std::pair<E, const char*> (&table)[N], E v) {
  for (const auto& [value, name] : table) {
    if (value == v) return name;
  }
  return "?";
}

/// Parses `s` via the name table; on unknown input throws naming `what`
/// and every accepted name, e.g. "unknown system: x (one of: a, b)".
template <typename E, std::size_t N>
E enumFromName(const std::pair<E, const char*> (&table)[N], const std::string& s,
               const char* what) {
  std::string accepted;
  for (const auto& [value, name] : table) {
    if (s == name) return value;
    accepted += accepted.empty() ? name : std::string(", ") + name;
  }
  throw std::runtime_error(std::string("unknown ") + what + ": " + s + " (one of: " +
                           accepted + ")");
}

}  // namespace nwc::util
