// The pluggable workload seam: "what generates accesses" is a first-class
// interface, decoupled from the machine-driving loop.
//
// A WorkloadSource produces the per-cpu access stream; runWorkload() owns
// everything else (machine construction, sink attachment, spawn order,
// event loop, summary/metrics finalization). The seven paper kernels and
// the synthetic/recorded block-trace sources are all implementations of
// this one interface, so every entry point (nwcsim, nwcbatch, benches,
// tests) drives them identically.
//
// Workload specs: anywhere an application name is accepted, two extra
// spellings select non-kernel sources:
//   synth[:k=v;k=v...]   deterministic synthetic block workload
//   trace:PATH           recorded block trace (the text form nwcgen writes)
// See docs/WORKLOADS.md for the knobs and trace format.
#pragma once

#include <memory>
#include <string>

#include "apps/runner.hpp"
#include "sim/task.hpp"

namespace nwc::apps {

class AppContext;

/// One runnable workload. Lifecycle: construct -> setup() -> one
/// drive(cpu) coroutine per processor -> verify(). The driver appends the
/// final fence + cpuDone after drive() returns, exactly as the historical
/// kernel runner did (awaiting the nested task is simulation-neutral:
/// symmetric transfer adds no engine events).
class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  /// Name recorded in RunSummary.app (kernel name, spec string, ...).
  virtual std::string name() const = 0;

  /// Allocates regions on the machine and fills initial data. Runs before
  /// Machine::start(), like AppInstance::setup always has.
  virtual void setup(AppContext& ctx) = 0;

  /// Per-processor access stream. Must not call fence/cpuDone itself.
  virtual sim::Task<> drive(AppContext& ctx, int cpu) = 0;

  /// Post-run correctness check.
  virtual bool verify() const = 0;

  /// Total mapped bytes (Table 2's "Data (MB)" column for kernels).
  virtual std::uint64_t dataBytes() const = 0;
};

/// Adapter: one of the paper's seven execution-driven kernels behind the
/// seam. drive() forwards to AppInstance::run.
class KernelWorkload final : public WorkloadSource {
 public:
  KernelWorkload(std::string name, std::unique_ptr<AppInstance> app)
      : name_(std::move(name)), app_(std::move(app)) {}

  std::string name() const override { return name_; }
  void setup(AppContext& ctx) override { app_->setup(ctx); }
  sim::Task<> drive(AppContext& ctx, int cpu) override {
    return app_->run(ctx, cpu);
  }
  bool verify() const override { return app_->verify(); }
  std::uint64_t dataBytes() const override { return app_->dataBytes(); }

 private:
  std::string name_;
  std::unique_ptr<AppInstance> app_;
};

/// Runs one WorkloadSource on a machine built from `cfg`, with the full
/// set of observability sinks. This is THE driver: runApp() is a thin
/// wrapper over it.
RunSummary runWorkload(const machine::MachineConfig& cfg, WorkloadSource& src,
                       const ObsSinks& sinks);

/// True when `spec` names a non-kernel workload source ("synth"/"synth:..."
/// or "trace:PATH") rather than a registered application.
bool isWorkloadSpec(const std::string& spec);

/// Builds the source a spec describes. `scale` shrinks synthetic op counts
/// exactly as it shrinks kernel inputs. Throws std::invalid_argument on a
/// malformed spec (see workloadSpecError for a non-throwing check).
/// Implemented in synthetic.cpp.
std::unique_ptr<WorkloadSource> makeWorkload(const std::string& spec,
                                             double scale);

/// Fail-fast validation used by CLI/INI front ends: empty string when
/// `spec` is a known kernel or a well-formed workload spec (for trace:
/// specs the file must exist and parse), else a human-readable error.
std::string workloadSpecError(const std::string& spec);

}  // namespace nwc::apps
