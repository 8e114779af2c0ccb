// LU: blocked dense LU factorization without pivoting (Table 2: 576 x 576
// doubles, ~2.7 MB). SPLASH-2-style: factor the diagonal block, triangular-
// solve the perimeter panels, rank-update the interior; blocks are assigned
// to processors cyclically; barriers separate the three phases of a step.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/app_context.hpp"
#include "apps/registry.hpp"
#include "sim/random.hpp"

namespace nwc::apps {

namespace {

class Lu final : public AppInstance {
 public:
  explicit Lu(double scale) {
    nblocks_ = std::max<std::size_t>(2, static_cast<std::size_t>(8 * scale));
    block_ = std::max<std::size_t>(8, static_cast<std::size_t>(72 * scale));
    n_ = nblocks_ * block_;
  }

  void setup(AppContext& ctx) override {
    ncpus_ = ctx.numCpus();
    a_ = ctx.map<double>(n_ * n_, "lu_a");

    sim::Rng rng(0x11u);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < n_; ++j) {
        double v = rng.uniform() - 0.5;
        if (i == j) v += static_cast<double>(n_);
        a_.raw(i * n_ + j) = v;
      }
    }

    // Host reference: unblocked right-looking LU (identical arithmetic to
    // the blocked kernel in exact arithmetic; tolerance covers reordering).
    ref_.resize(n_ * n_);
    for (std::size_t k = 0; k < n_ * n_; ++k) ref_[k] = a_.raw(k);
    for (std::size_t k = 0; k < n_; ++k) {
      for (std::size_t i = k + 1; i < n_; ++i) {
        ref_[i * n_ + k] /= ref_[k * n_ + k];
        const double lik = ref_[i * n_ + k];
        for (std::size_t j = k + 1; j < n_; ++j) {
          ref_[i * n_ + j] -= lik * ref_[k * n_ + j];
        }
      }
    }
  }

  sim::Task<> run(AppContext& ctx, int cpu) override {
    const std::size_t nb = nblocks_;
    const std::size_t b = block_;
    auto owner = [&](std::size_t bi, std::size_t bj) {
      return static_cast<int>((bi * nb + bj) % static_cast<std::size_t>(ncpus_));
    };
    auto at = [&](std::size_t i, std::size_t j) { return i * n_ + j; };

    for (std::size_t kb = 0; kb < nb; ++kb) {
      const std::size_t k0 = kb * b;

      // Phase 1: factor the diagonal block (its owner only).
      if (owner(kb, kb) == cpu) {
        for (std::size_t k = k0; k < k0 + b; ++k) {
          const double pivot = co_await a_.get(cpu, at(k, k));
          for (std::size_t i = k + 1; i < k0 + b; ++i) {
            const double lik = (co_await a_.get(cpu, at(i, k))) / pivot;
            co_await a_.set(cpu, at(i, k), lik);
            ctx.compute(cpu, 4);
            for (std::size_t j = k + 1; j < k0 + b; ++j) {
              const double akj = co_await a_.get(cpu, at(k, j));
              const double aij = co_await a_.get(cpu, at(i, j));
              co_await a_.set(cpu, at(i, j), aij - lik * akj);
              ctx.compute(cpu, 2);
            }
          }
        }
      }
      co_await ctx.barrier(cpu);

      // Phase 2: perimeter panels.
      // U panel (kb, jb), jb > kb: solve L(kb,kb) * U = A.
      for (std::size_t jb = kb + 1; jb < nb; ++jb) {
        if (owner(kb, jb) != cpu) continue;
        const std::size_t j0 = jb * b;
        for (std::size_t k = k0; k < k0 + b; ++k) {
          for (std::size_t i = k + 1; i < k0 + b; ++i) {
            const double lik = co_await a_.get(cpu, at(i, k));
            for (std::size_t j = j0; j < j0 + b; ++j) {
              const double akj = co_await a_.get(cpu, at(k, j));
              const double aij = co_await a_.get(cpu, at(i, j));
              co_await a_.set(cpu, at(i, j), aij - lik * akj);
              ctx.compute(cpu, 2);
            }
          }
        }
      }
      // L panel (ib, kb), ib > kb: solve L * U(kb,kb) = A.
      for (std::size_t ib = kb + 1; ib < nb; ++ib) {
        if (owner(ib, kb) != cpu) continue;
        const std::size_t i0 = ib * b;
        for (std::size_t k = k0; k < k0 + b; ++k) {
          const double pivot = co_await a_.get(cpu, at(k, k));
          for (std::size_t i = i0; i < i0 + b; ++i) {
            const double lik = (co_await a_.get(cpu, at(i, k))) / pivot;
            co_await a_.set(cpu, at(i, k), lik);
            ctx.compute(cpu, 4);
            for (std::size_t j = k + 1; j < k0 + b; ++j) {
              const double akj = co_await a_.get(cpu, at(k, j));
              const double aij = co_await a_.get(cpu, at(i, j));
              co_await a_.set(cpu, at(i, j), aij - lik * akj);
              ctx.compute(cpu, 2);
            }
          }
        }
      }
      co_await ctx.barrier(cpu);

      // Phase 3: interior rank-b update A(ib,jb) -= L(ib,kb) * U(kb,jb).
      for (std::size_t ib = kb + 1; ib < nb; ++ib) {
        for (std::size_t jb = kb + 1; jb < nb; ++jb) {
          if (owner(ib, jb) != cpu) continue;
          const std::size_t i0 = ib * b;
          const std::size_t j0 = jb * b;
          for (std::size_t i = i0; i < i0 + b; ++i) {
            for (std::size_t k = k0; k < k0 + b; ++k) {
              const double lik = co_await a_.get(cpu, at(i, k));
              for (std::size_t j = j0; j < j0 + b; ++j) {
                const double akj = co_await a_.get(cpu, at(k, j));
                const double aij = co_await a_.get(cpu, at(i, j));
                co_await a_.set(cpu, at(i, j), aij - lik * akj);
                ctx.compute(cpu, 2);
              }
            }
          }
        }
      }
      co_await ctx.barrier(cpu);
    }
  }

  bool verify() const override {
    for (std::size_t k = 0; k < n_ * n_; ++k) {
      const double scale = std::max(1.0, std::abs(ref_[k]));
      if (std::abs(a_.raw(k) - ref_[k]) > 1e-6 * scale) return false;
    }
    return true;
  }

  std::uint64_t dataBytes() const override { return n_ * n_ * sizeof(double); }

 private:
  std::size_t nblocks_, block_, n_;
  int ncpus_ = 1;
  MappedFile<double> a_;
  HostVector<double> ref_;
};

}  // namespace

std::unique_ptr<AppInstance> makeLu(double scale) {
  return std::make_unique<Lu>(scale);
}

}  // namespace nwc::apps
