// Analytical FIFO queueing server.
//
// Models a single-server FIFO resource (a bus, a network link, a disk arm,
// an optical transceiver): a request arriving at `now` with service demand
// `service` starts at `max(now, busy_until)` and completes `service` later.
// The caller then `co_await eng.waitUntil(completion)`. This yields exact
// FIFO contention without any event-queue traffic for uncontended requests.
#pragma once

#include <cstdint>
#include <string>

#include "sim/types.hpp"

namespace nwc::sim {

class FifoServer {
 public:
  explicit FifoServer(std::string name = {}) : name_(std::move(name)) {}

  /// Reserves the server for `service` ticks starting no earlier than `now`.
  /// Returns the completion time of this request.
  Tick request(Tick now, Tick service) {
    const Tick start = now > busy_until_ ? now : busy_until_;
    queued_ticks_ += start - now;
    busy_ticks_ += service;
    ++jobs_;
    busy_until_ = start + service;
    return busy_until_;
  }

  /// Completion time of the last accepted request (0 if none yet).
  Tick busyUntil() const { return busy_until_; }

  /// True if a request arriving at `now` would have to queue.
  bool wouldQueue(Tick now) const { return busy_until_ > now; }

  // --- statistics -----------------------------------------------------
  std::uint64_t jobs() const { return jobs_; }
  Tick busyTicks() const { return busy_ticks_; }      // total service time
  Tick queuedTicks() const { return queued_ticks_; }  // total waiting time

  /// Utilization over [0, horizon].
  double utilization(Tick horizon) const {
    return horizon == 0 ? 0.0 : static_cast<double>(busy_ticks_) / static_cast<double>(horizon);
  }

  /// Mean queueing delay per job, in ticks.
  double meanQueueDelay() const {
    return jobs_ == 0 ? 0.0 : static_cast<double>(queued_ticks_) / static_cast<double>(jobs_);
  }

  const std::string& name() const { return name_; }

  void reset() {
    busy_until_ = 0;
    jobs_ = 0;
    busy_ticks_ = 0;
    queued_ticks_ = 0;
  }

 private:
  std::string name_;
  Tick busy_until_ = 0;
  std::uint64_t jobs_ = 0;
  Tick busy_ticks_ = 0;
  Tick queued_ticks_ = 0;
};

/// Converts a transfer of `bytes` at `bytes_per_sec` into pcycles.
/// `pcycle_ns` is the processor cycle time in nanoseconds.
Tick transferTicks(std::uint64_t bytes, double bytes_per_sec, double pcycle_ns);

}  // namespace nwc::sim
