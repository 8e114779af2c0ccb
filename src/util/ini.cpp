#include "util/ini.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace nwc::util {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> splitList(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const auto comma = s.find(',', pos);
    std::string item = trim(s.substr(pos, comma == std::string::npos ? comma : comma - pos));
    if (!item.empty()) out.push_back(std::move(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

double positiveFlag(const std::string& flag, const std::string& text, bool whole,
                    double max) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v) || v <= 0.0 || v > max ||
      (whole && v != std::floor(v))) {
    char bound[32];
    std::snprintf(bound, sizeof(bound), "%g", max);
    throw std::invalid_argument(
        flag + " must be " +
        (whole ? "a whole number in [1, " + std::to_string(std::llround(max)) + "]"
         : max < 1e15 ? "a number in (0, " + std::string(bound) + "]"
                      : "a finite number > 0") +
        ", got '" + text + "'");
  }
  return v;
}

std::uint64_t seedValue(const std::string& what, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(text.c_str(), &end, 0);
  if (text.empty() || *end != '\0' || errno == ERANGE ||
      text.find('-') != std::string::npos) {
    throw std::invalid_argument(
        what + " must be a whole number in [0, " +
        std::to_string(std::numeric_limits<std::uint64_t>::max()) + "], got '" + text + "'");
  }
  return v;
}

IniFile IniFile::parse(const std::string& text) {
  IniFile ini;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto comment = line.find_first_of("#;");
    if (comment != std::string::npos) line.erase(comment);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw std::runtime_error("ini: unterminated section at line " +
                                 std::to_string(lineno));
      }
      section = trim(line.substr(1, line.size() - 2));
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("ini: expected key=value at line " +
                               std::to_string(lineno));
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("ini: empty key at line " + std::to_string(lineno));
    }
    ini.values_[section.empty() ? key : section + "." + key] = value;
  }
  return ini;
}

IniFile IniFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ini: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

std::optional<std::string> IniFile::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> IniFile::getDouble(const std::string& key) const {
  const auto v = get(key);
  if (!v.has_value()) return std::nullopt;
  char* end = nullptr;
  const double d = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') {
    throw std::runtime_error("ini: " + key + " is not a number: " + *v);
  }
  return d;
}

std::optional<std::int64_t> IniFile::getInt(const std::string& key) const {
  const auto v = get(key);
  if (!v.has_value()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const std::int64_t i = std::strtoll(v->c_str(), &end, 0);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE) {
    throw std::runtime_error("ini: " + key + " is not an integer: " + *v);
  }
  return i;
}

std::optional<bool> IniFile::getBool(const std::string& key) const {
  const auto v = get(key);
  if (!v.has_value()) return std::nullopt;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::runtime_error("ini: " + key + " is not a boolean: " + *v);
}

std::string IniFile::serialize() const {
  std::ostringstream out;
  // Sectionless keys must precede every [section] header.
  for (const auto& [full_key, value] : values_) {
    if (full_key.find('.') == std::string::npos) {
      out << full_key << " = " << value << '\n';
    }
  }
  std::string current_section;
  for (const auto& [full_key, value] : values_) {
    const auto dot = full_key.find('.');
    if (dot == std::string::npos) continue;
    const std::string section = full_key.substr(0, dot);
    if (section != current_section) {
      if (out.tellp() > 0) out << '\n';
      out << '[' << section << "]\n";
      current_section = section;
    }
    out << full_key.substr(dot + 1) << " = " << value << '\n';
  }
  return out.str();
}

}  // namespace nwc::util
