// Minimal CSV writer: benches mirror their stdout tables into CSV files so
// plots can be regenerated offline.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace nwc::util {

class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row. Throws on failure.
  CsvWriter(const std::string& path, const std::vector<std::string>& headers);

  void addRow(const std::vector<std::string>& cells);

  /// Closes the file. Throws naming the path when any write failed (a
  /// full disk shows only when the buffer is flushed).
  void close();

  const std::string& path() const { return path_; }

  /// Escapes a cell per RFC 4180 (quotes around commas/quotes/newlines).
  static std::string escape(const std::string& cell);

 private:
  std::string path_;
  std::ofstream out_;
};

}  // namespace nwc::util
