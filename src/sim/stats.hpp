// Lightweight statistics accumulators used throughout the models.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace nwc::sim {

/// Scalar running statistics: count / sum / min / max / mean.
class Accumulator {
 public:
  void add(double v) {
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  Accumulator& operator+=(const Accumulator& o) {
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.count_) {
      if (o.min_ < min_) min_ = o.min_;
      if (o.max_ > max_) max_ = o.max_;
    }
    return *this;
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Power-of-two bucketed histogram (bucket i holds values in [2^i, 2^(i+1))).
class Log2Histogram {
 public:
  void add(std::uint64_t v);
  std::uint64_t count() const { return total_; }
  std::uint64_t bucket(int i) const { return buckets_[static_cast<std::size_t>(i)]; }
  static constexpr int kBuckets = 64;

  /// Value below which `q` (0..1) of samples fall (bucket upper bound).
  std::uint64_t quantileUpperBound(double q) const;

  std::string summary() const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t total_ = 0;
};

/// Ratio counter, e.g. cache hits over accesses.
class RatioCounter {
 public:
  void hit() { ++hits_, ++total_; }
  void miss() { ++total_; }
  void add(bool was_hit) { was_hit ? hit() : miss(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return total_ - hits_; }
  std::uint64_t total() const { return total_; }
  double rate() const { return total_ ? static_cast<double>(hits_) / static_cast<double>(total_) : 0.0; }

 private:
  std::uint64_t hits_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace nwc::sim
