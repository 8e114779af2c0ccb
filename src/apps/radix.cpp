// Radix: parallel integer radix sort (Table 2: 320 K keys, radix 1024,
// ~2.6 MB). Keys are 20-bit, so two counting passes of 10 bits each.
//
// Per pass: each processor histograms its block into its own row of the
// shared histogram, a parallel prefix over (digit, cpu) produces scatter
// offsets, then each processor scatters its block. Double-buffered, so the
// scatter of one pass never races the reads of the next.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/app_context.hpp"
#include "apps/registry.hpp"
#include "sim/random.hpp"

namespace nwc::apps {

namespace {

constexpr std::uint32_t kRadix = 1024;
constexpr int kDigitBits = 10;
constexpr int kPasses = 2;  // 20-bit keys
constexpr std::uint32_t kKeyMask = (1u << (kDigitBits * kPasses)) - 1;

class Radix final : public AppInstance {
 public:
  explicit Radix(double scale) {
    n_ = std::max<std::size_t>(1024, static_cast<std::size_t>(327680 * scale));
  }

  void setup(AppContext& ctx) override {
    ncpus_ = ctx.numCpus();
    a_ = ctx.map<std::uint32_t>(n_, "radix_a");
    b_ = ctx.map<std::uint32_t>(n_, "radix_b");
    hist_ = ctx.map<std::uint32_t>(static_cast<std::size_t>(ncpus_) * kRadix, "radix_hist");
    offsets_ = ctx.map<std::uint32_t>(static_cast<std::size_t>(ncpus_) * kRadix,
                                      "radix_offsets");

    sim::Rng rng(0x4Adu);
    ref_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      const auto k = static_cast<std::uint32_t>(rng.next()) & kKeyMask;
      a_.raw(i) = k;
      ref_[i] = k;
    }
    std::sort(ref_.begin(), ref_.end());
  }

  sim::Task<> run(AppContext& ctx, int cpu) override {
    const std::size_t chunk = (n_ + static_cast<std::size_t>(ncpus_) - 1) /
                              static_cast<std::size_t>(ncpus_);
    const std::size_t lo = std::min(n_, static_cast<std::size_t>(cpu) * chunk);
    const std::size_t hi = std::min(n_, lo + chunk);

    MappedFile<std::uint32_t>* src = &a_;
    MappedFile<std::uint32_t>* dst = &b_;

    for (int pass = 0; pass < kPasses; ++pass) {
      const int shift = pass * kDigitBits;

      // Phase 1: local histogram into this cpu's row.
      std::vector<std::uint32_t> local(kRadix, 0);  // register/stack counts
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t key = co_await src->get(cpu, i);
        ++local[(key >> shift) & (kRadix - 1)];
        ctx.compute(cpu, 2);
      }
      for (std::uint32_t d = 0; d < kRadix; ++d) {
        co_await hist_.set(cpu, static_cast<std::size_t>(cpu) * kRadix + d, local[d]);
      }
      co_await ctx.barrier(cpu);

      // Phase 2: prefix sums. Each cpu computes the global offsets for its
      // share of the digits: offset(d, c) = sum over all digits < d plus
      // the counts of cpus < c for digit d.
      const std::uint32_t dchunk = (kRadix + static_cast<std::uint32_t>(ncpus_) - 1) /
                                   static_cast<std::uint32_t>(ncpus_);
      const std::uint32_t dlo = std::min(kRadix, static_cast<std::uint32_t>(cpu) * dchunk);
      const std::uint32_t dhi = std::min(kRadix, dlo + dchunk);
      // Every cpu first derives the per-digit totals it needs.
      std::vector<std::uint32_t> digit_total(kRadix, 0);
      for (std::uint32_t d = 0; d < kRadix; ++d) {
        std::uint32_t s = 0;
        for (int c = 0; c < ncpus_; ++c) {
          s += co_await hist_.get(cpu, static_cast<std::size_t>(c) * kRadix + d);
          ctx.compute(cpu, 1);
        }
        digit_total[d] = s;
      }
      std::vector<std::uint32_t> digit_base(kRadix, 0);
      std::uint32_t running = 0;
      for (std::uint32_t d = 0; d < kRadix; ++d) {
        digit_base[d] = running;
        running += digit_total[d];
        ctx.compute(cpu, 1);
      }
      for (std::uint32_t d = dlo; d < dhi; ++d) {
        std::uint32_t off = digit_base[d];
        for (int c = 0; c < ncpus_; ++c) {
          co_await offsets_.set(cpu, static_cast<std::size_t>(c) * kRadix + d, off);
          off += co_await hist_.get(cpu, static_cast<std::size_t>(c) * kRadix + d);
          ctx.compute(cpu, 1);
        }
      }
      co_await ctx.barrier(cpu);

      // Phase 3: scatter (stable within a cpu's block).
      std::vector<std::uint32_t> cursor(kRadix);
      for (std::uint32_t d = 0; d < kRadix; ++d) {
        cursor[d] = co_await offsets_.get(cpu, static_cast<std::size_t>(cpu) * kRadix + d);
      }
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t key = co_await src->get(cpu, i);
        const std::uint32_t d = (key >> shift) & (kRadix - 1);
        co_await dst->set(cpu, cursor[d]++, key);
        ctx.compute(cpu, 3);
      }
      co_await ctx.barrier(cpu);

      std::swap(src, dst);
    }
  }

  bool verify() const override {
    // kPasses is even, so the sorted result ends in a_.
    for (std::size_t i = 0; i < n_; ++i) {
      if (a_.raw(i) != ref_[i]) return false;
    }
    return true;
  }

  std::uint64_t dataBytes() const override {
    return (2 * n_ + 2 * static_cast<std::size_t>(ncpus_) * kRadix) * sizeof(std::uint32_t);
  }

 private:
  std::size_t n_;
  int ncpus_ = 1;
  MappedFile<std::uint32_t> a_, b_, hist_, offsets_;
  HostVector<std::uint32_t> ref_;
};

}  // namespace

std::unique_ptr<AppInstance> makeRadix(double scale) {
  return std::make_unique<Radix>(scale);
}

}  // namespace nwc::apps
