#include "sim/fifo_server.hpp"

#include <cmath>

namespace nwc::sim {

Tick transferTicks(std::uint64_t bytes, double bytes_per_sec, double pcycle_ns) {
  if (bytes == 0 || bytes_per_sec <= 0.0) return 0;
  const double seconds = static_cast<double>(bytes) / bytes_per_sec;
  const double ns = seconds * 1e9;
  return static_cast<Tick>(std::ceil(ns / pcycle_ns));
}

}  // namespace nwc::sim
