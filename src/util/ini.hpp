// Minimal INI parser/serializer for machine configuration files, plus the
// strict text helpers the INI readers and the command-line tools share.
//
// Supported syntax: `[section]`, `key = value`, `#`/`;` comments, blank
// lines. Keys are reported as "section.key" ("" section for the prologue).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace nwc::util {

class IniFile {
 public:
  IniFile() = default;

  /// Parses INI text. Throws std::runtime_error with a line number on
  /// malformed input.
  static IniFile parse(const std::string& text);

  /// Loads and parses a file. Throws on I/O or parse errors.
  static IniFile load(const std::string& path);

  bool has(const std::string& key) const { return values_.contains(key); }
  std::optional<std::string> get(const std::string& key) const;
  std::optional<double> getDouble(const std::string& key) const;
  std::optional<std::int64_t> getInt(const std::string& key) const;
  std::optional<bool> getBool(const std::string& key) const;  // true/false/1/0

  void set(const std::string& key, const std::string& value) { values_[key] = value; }

  /// Serializes back to INI text, grouped by section, keys sorted.
  std::string serialize() const;

  const std::map<std::string, std::string>& values() const { return values_; }
  std::size_t size() const { return values_.size(); }

 private:
  std::map<std::string, std::string> values_;  // "section.key" -> value
};

/// Trims ASCII whitespace from both ends.
std::string trim(const std::string& s);

/// Splits a comma list into trimmed, non-empty items.
std::vector<std::string> splitList(const std::string& s);

/// The value of a numeric command-line flag: a finite number in (0, max]
/// with nothing after it; a count (`whole`) must also be an integer.
/// Throws std::invalid_argument naming `flag`.
double positiveFlag(const std::string& flag, const std::string& text, bool whole = false,
                    double max = 1e15);

/// A seed: a whole number in [0, 2^64), decimal or 0x-prefixed hex, with
/// nothing after it. Throws std::invalid_argument naming `what`.
std::uint64_t seedValue(const std::string& what, const std::string& text);

}  // namespace nwc::util
