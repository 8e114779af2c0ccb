// Shared deterministic pseudo-random streams (xoshiro256** + splitmix64)
// and a zipfian popularity sampler.
//
// Header-only and free of global state: every consumer owns its generator,
// so draws are byte-identical for a given seed regardless of --jobs=.
// `sim::Rng` delegates here; workload generators use these types directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nwc::util {

/// splitmix64: expands a single seed into stream states.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna). Not cryptographic; fast and
/// statistically sound for simulation use.
class Xoshiro256ss {
 public:
  explicit Xoshiro256ss(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
      : seed_(seed) {
    std::uint64_t sm = seed;
    for (auto& s : s_) s = splitmix64(sm);
  }

  /// Seed for an independent stream: same seed + different tag => different
  /// but reproducible sequence. Construct a new generator from the result.
  std::uint64_t forkSeed(std::uint64_t tag) const {
    std::uint64_t sm =
        seed_ ^ (tag * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
    return splitmix64(sm);
  }

  Xoshiro256ss fork(std::uint64_t tag) const {
    return Xoshiro256ss(forkSeed(tag));
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded draw; bias negligible for sim use.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

  /// Uniform in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo +
           static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  std::uint64_t seed_;
};

/// Zipfian rank sampler: rank r in [0, n) is drawn with probability
/// proportional to 1 / (r+1)^theta. theta = 0 is uniform; theta around
/// 0.9-1.0 matches the skew reported for storage object popularity.
///
/// The normalized CDF is precomputed once (O(n)). A guide table (Chen and
/// Asau's indexed search) narrows each sample's binary search to the ranks
/// whose CDF crosses u's bucket [k/G, (k+1)/G), so a sample takes O(1)
/// expected time. It returns exactly the rank a binary search over the
/// whole CDF would: sample(u) is a pure function of u.
class ZipfianSampler {
 public:
  /// Guide buckets. A power of two, so u * kGuide and k / kGuide are exact.
  static constexpr std::size_t kGuide = 4096;

  ZipfianSampler(std::size_t n, double theta) : cdf_(n), guide_(kGuide + 1) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (std::size_t i = 0; i < n; ++i) cdf_[i] /= sum;
    // guide_[k] is the first rank whose CDF exceeds k / kGuide: the
    // std::upper_bound of k / kGuide, found with the same `u < cdf` test.
    std::size_t j = 0;
    for (std::size_t k = 0; k <= kGuide; ++k) {
      const double edge = static_cast<double>(k) / static_cast<double>(kGuide);
      while (j < n && !(edge < cdf_[j])) ++j;
      guide_[k] = j;
    }
  }

  std::size_t size() const { return cdf_.size(); }

  /// Maps u in [0, 1) to a rank in [0, size()).
  std::size_t sample(double u) const {
    auto first = cdf_.begin();
    auto last = cdf_.end();
    if (u >= 0.0 && u < 1.0) {
      // upper_bound(u) lies between the bounds of u's bucket.
      const auto k = static_cast<std::size_t>(u * static_cast<double>(kGuide));
      last = first + static_cast<std::ptrdiff_t>(guide_[k + 1]);
      first += static_cast<std::ptrdiff_t>(guide_[k]);
    }
    const auto it = std::upper_bound(first, last, u);
    if (it == cdf_.end()) return cdf_.size() - 1;
    return static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> guide_;
};

}  // namespace nwc::util
