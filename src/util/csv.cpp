#include "util/csv.hpp"

#include <stdexcept>

namespace nwc::util {

CsvWriter::CsvWriter(const std::string& path, const std::vector<std::string>& headers)
    : path_(path), out_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
  addRow(headers);
}

void CsvWriter::addRow(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
}

void CsvWriter::close() {
  out_.close();
  if (!out_) throw std::runtime_error("cannot write " + path_);
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char ch : cell) {
    if (ch == '"') quoted += '"';
    quoted += ch;
  }
  quoted += '"';
  return quoted;
}

}  // namespace nwc::util
