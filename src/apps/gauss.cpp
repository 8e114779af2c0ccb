// Gauss: unblocked Gaussian elimination (Table 2: 570 x 512 doubles,
// ~2.3 MB). Rows are distributed cyclically; one barrier per pivot step.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/app_context.hpp"
#include "apps/registry.hpp"
#include "sim/random.hpp"

namespace nwc::apps {

namespace {

class Gauss final : public AppInstance {
 public:
  explicit Gauss(double scale) {
    rows_ = std::max<std::size_t>(24, static_cast<std::size_t>(570 * scale));
    cols_ = std::max<std::size_t>(16, static_cast<std::size_t>(512 * scale));
  }

  void setup(AppContext& ctx) override {
    ncpus_ = ctx.numCpus();
    a_ = ctx.map<double>(rows_ * cols_, "gauss_a");

    // Diagonally dominant matrix: elimination without pivoting stays stable.
    sim::Rng rng(0x6A55);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t j = 0; j < cols_; ++j) {
        double v = rng.uniform() - 0.5;
        if (i == j) v += static_cast<double>(cols_);
        a_.raw(i * cols_ + j) = v;
      }
    }

    // Host reference elimination.
    ref_.resize(rows_ * cols_);
    for (std::size_t k = 0; k < rows_ * cols_; ++k) ref_[k] = a_.raw(k);
    const std::size_t pivots = std::min(rows_, cols_);
    for (std::size_t k = 0; k < pivots; ++k) {
      for (std::size_t i = k + 1; i < rows_; ++i) {
        const double m = ref_[i * cols_ + k] / ref_[k * cols_ + k];
        for (std::size_t j = k; j < cols_; ++j) {
          ref_[i * cols_ + j] -= m * ref_[k * cols_ + j];
        }
      }
    }
  }

  sim::Task<> run(AppContext& ctx, int cpu) override {
    const std::size_t pivots = std::min(rows_, cols_);
    for (std::size_t k = 0; k < pivots; ++k) {
      const double pivot = co_await a_.get(cpu, k * cols_ + k);
      for (std::size_t i = k + 1; i < rows_; ++i) {
        if (i % static_cast<std::size_t>(ncpus_) != static_cast<std::size_t>(cpu)) continue;
        const double m = (co_await a_.get(cpu, i * cols_ + k)) / pivot;
        ctx.compute(cpu, 4);
        for (std::size_t j = k; j < cols_; ++j) {
          const double akj = co_await a_.get(cpu, k * cols_ + j);
          const double aij = co_await a_.get(cpu, i * cols_ + j);
          co_await a_.set(cpu, i * cols_ + j, aij - m * akj);
          ctx.compute(cpu, 2);
        }
      }
      co_await ctx.barrier(cpu);
    }
  }

  bool verify() const override {
    for (std::size_t k = 0; k < rows_ * cols_; ++k) {
      if (std::abs(a_.raw(k) - ref_[k]) > 1e-6) return false;
    }
    return true;
  }

  std::uint64_t dataBytes() const override { return rows_ * cols_ * sizeof(double); }

 private:
  std::size_t rows_, cols_;
  int ncpus_ = 1;
  MappedFile<double> a_;
  HostVector<double> ref_;
};

}  // namespace

std::unique_ptr<AppInstance> makeGauss(double scale) {
  return std::make_unique<Gauss>(scale);
}

}  // namespace nwc::apps
