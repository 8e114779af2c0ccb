// SOR: red-black successive over-relaxation (Table 2: 640 x 512 doubles,
// 10 iterations, ~2.6 MB). Red points update from black neighbours and
// vice versa, one barrier between colours; rows are block-partitioned.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/app_context.hpp"
#include "apps/registry.hpp"
#include "sim/random.hpp"

namespace nwc::apps {

namespace {

constexpr double kOmega = 1.5;

class Sor final : public AppInstance {
 public:
  explicit Sor(double scale) {
    rows_ = std::max<std::size_t>(16, static_cast<std::size_t>(640 * scale));
    cols_ = std::max<std::size_t>(16, static_cast<std::size_t>(512 * scale));
    iters_ = 10;
  }

  void setup(AppContext& ctx) override {
    ncpus_ = ctx.numCpus();
    g_ = ctx.map<double>(rows_ * cols_, "sor_grid");

    sim::Rng rng(0x50B);
    for (std::size_t i = 0; i < rows_ * cols_; ++i) g_.raw(i) = rng.uniform();

    // Host reference.
    ref_.resize(rows_ * cols_);
    for (std::size_t i = 0; i < rows_ * cols_; ++i) ref_[i] = g_.raw(i);
    for (int it = 0; it < iters_; ++it) {
      for (int colour = 0; colour < 2; ++colour) {
        for (std::size_t i = 1; i + 1 < rows_; ++i) {
          for (std::size_t j = 1; j + 1 < cols_; ++j) {
            if (((i + j) & 1) != static_cast<std::size_t>(colour)) continue;
            const double avg = 0.25 * (ref_[(i - 1) * cols_ + j] + ref_[(i + 1) * cols_ + j] +
                                       ref_[i * cols_ + j - 1] + ref_[i * cols_ + j + 1]);
            ref_[i * cols_ + j] += kOmega * (avg - ref_[i * cols_ + j]);
          }
        }
      }
    }
  }

  sim::Task<> run(AppContext& ctx, int cpu) override {
    const std::size_t span = (rows_ + static_cast<std::size_t>(ncpus_) - 1) /
                             static_cast<std::size_t>(ncpus_);
    const std::size_t r0 = std::max<std::size_t>(1, static_cast<std::size_t>(cpu) * span);
    const std::size_t r1 = std::min(rows_ - 1, static_cast<std::size_t>(cpu + 1) * span);

    for (int it = 0; it < iters_; ++it) {
      for (int colour = 0; colour < 2; ++colour) {
        for (std::size_t i = r0; i < r1; ++i) {
          for (std::size_t j = 1; j + 1 < cols_; ++j) {
            if (((i + j) & 1) != static_cast<std::size_t>(colour)) continue;
            const double up = co_await g_.get(cpu, (i - 1) * cols_ + j);
            const double down = co_await g_.get(cpu, (i + 1) * cols_ + j);
            const double left = co_await g_.get(cpu, i * cols_ + j - 1);
            const double right = co_await g_.get(cpu, i * cols_ + j + 1);
            const double cur = co_await g_.get(cpu, i * cols_ + j);
            const double avg = 0.25 * (up + down + left + right);
            co_await g_.set(cpu, i * cols_ + j, cur + kOmega * (avg - cur));
            ctx.compute(cpu, 7);
          }
        }
        co_await ctx.barrier(cpu);
      }
    }
  }

  bool verify() const override {
    for (std::size_t i = 0; i < rows_ * cols_; ++i) {
      if (std::abs(g_.raw(i) - ref_[i]) > 1e-9) return false;
    }
    return true;
  }

  std::uint64_t dataBytes() const override { return rows_ * cols_ * sizeof(double); }

 private:
  std::size_t rows_, cols_;
  int iters_;
  int ncpus_ = 1;
  MappedFile<double> g_;
  HostVector<double> ref_;
};

}  // namespace

std::unique_ptr<AppInstance> makeSor(double scale) {
  return std::make_unique<Sor>(scale);
}

}  // namespace nwc::apps
