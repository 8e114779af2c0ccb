// Application-side view of the machine: mmap'd arrays and synchronization.
//
// The paper's applications mmap their files and access them through the
// virtual memory mechanism; here a `MappedFile<T>` pairs a simulated
// virtual-address region (whose pages live on the simulated disks) with a
// host backing vector holding the actual values, so every kernel computes
// real numbers while the machine model charges real time.
#pragma once

#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/host_vector.hpp"
#include "machine/machine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace nwc::apps {

template <typename T>
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(machine::Machine& m, std::size_t count, std::string name)
      : m_(&m),
        base_(m.allocRegion(count * sizeof(T), std::move(name))),
        data_(count) {}

  std::size_t size() const { return data_.size(); }
  std::uint64_t addrOf(std::size_t i) const { return base_ + i * sizeof(T); }

  /// Direct host access for initialization / post-run verification only.
  T& raw(std::size_t i) { return data_[i]; }
  const T& raw(std::size_t i) const { return data_[i]; }

  struct GetAwaiter {
    machine::Machine::AccessAwaiter inner;
    const T* slot;
    bool await_ready() { return inner.await_ready(); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      return inner.await_suspend(h);
    }
    T await_resume() const {
      inner.await_resume();
      return *slot;
    }
  };

  struct SetAwaiter {
    machine::Machine::AccessAwaiter inner;
    bool await_ready() { return inner.await_ready(); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      return inner.await_suspend(h);
    }
    void await_resume() const { inner.await_resume(); }
  };

  /// `T v = co_await a.get(cpu, i);`
  GetAwaiter get(int cpu, std::size_t i) {
    return GetAwaiter{m_->access(cpu, addrOf(i), false), &data_[i]};
  }

  /// `co_await a.set(cpu, i, v);`
  SetAwaiter set(int cpu, std::size_t i, T v) {
    data_[i] = v;
    return SetAwaiter{m_->access(cpu, addrOf(i), true)};
  }

  /// Read-modify-write helpers charge both references.
  sim::Task<> add(int cpu, std::size_t i, T delta) {
    T v = co_await get(cpu, i);
    co_await set(cpu, i, v + delta);
  }

 private:
  machine::Machine* m_ = nullptr;
  std::uint64_t base_ = 0;
  HostVector<T> data_;
};

/// Shared per-run context: the machine plus one global barrier.
class AppContext {
 public:
  explicit AppContext(machine::Machine& m)
      : m_(&m), barrier_(m.engine(), m.config().num_nodes) {}

  machine::Machine& machine() { return *m_; }
  int numCpus() const { return m_->config().num_nodes; }

  /// Charge `cycles` of local computation on `cpu` (scaled by the machine's
  /// `compute_cycle_scale` to approximate a full instruction stream).
  void compute(int cpu, sim::Tick cycles) {
    if (auto* rec = m_->refRecorder())
      rec->onCompute(cpu, static_cast<std::uint64_t>(cycles));
    m_->compute(cpu, static_cast<sim::Tick>(
                         static_cast<double>(cycles) *
                         m_->config().compute_cycle_scale));
  }

  /// Global barrier across all cpus (flushes local time first).
  sim::Task<> barrier(int cpu) {
    if (auto* rec = m_->refRecorder()) rec->onBarrier(cpu);
    co_await m_->fence(cpu);
    co_await barrier_.arriveAndWait();
  }

  template <typename T>
  MappedFile<T> map(std::size_t count, std::string name) {
    return MappedFile<T>(*m_, count, std::move(name));
  }

 private:
  machine::Machine* m_;
  sim::CoBarrier barrier_;
};

}  // namespace nwc::apps
