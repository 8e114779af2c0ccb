#include "util/file.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace nwc::util {

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace nwc::util
