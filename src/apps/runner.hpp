// One-call experiment driver: build a machine, run one application on it,
// collect metrics and check invariants.
#pragma once

#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "machine/config.hpp"
#include "machine/metrics.hpp"
#include "machine/trace.hpp"

namespace nwc::obs {
class EventTimeline;
class MetricsRegistry;
class Sampler;
struct HealthContext;
}

namespace nwc::apps {

struct RunSummary {
  std::string app;
  machine::MachineConfig cfg;
  machine::Metrics metrics{0};
  sim::Tick exec_time = 0;        // max per-cpu finish time
  bool verified = false;          // numerical result check
  std::string invariant_violations;  // empty when consistent
  std::uint64_t engine_events = 0;
  std::uint64_t data_bytes = 0;
  /// Health verdict from the periodic sampler ("healthy"/"degraded"); empty
  /// when the run was not sampled.
  std::string health_verdict;
  std::uint64_t health_trips = 0;

  bool ok() const { return verified && invariant_violations.empty(); }
};

/// Optional observability sinks for a run; every pointer may be null
/// (detached). `registry` is filled via Machine::publishMetrics after the
/// run completes; `timeline` records cross-layer events while it runs.
struct ObsSinks {
  /// Bare page-event record for the repository benchmark's replay
  /// (machine/trace.hpp); everything else reads page events from `timeline`.
  machine::TraceBuffer* trace = nullptr;
  obs::EventTimeline* timeline = nullptr;
  obs::MetricsRegistry* registry = nullptr;
  /// Kernel reference-stream capture; attached before setup() so region
  /// allocations are seen. See machine::RefRecorder.
  machine::RefRecorder* ref_recorder = nullptr;
  /// Periodic in-run sampler (obs/sampler.hpp). When `timeline` is also
  /// attached, its gauges land there as counter samples and health
  /// onsets/clears as `health.*` instants.
  obs::Sampler* sampler = nullptr;
};

/// Runs `app_name` at input `scale` on a machine built from `cfg`, with
/// whichever observability sinks are attached.
/// Throws std::invalid_argument for an unknown application name.
RunSummary runApp(const machine::MachineConfig& cfg, const std::string& app_name,
                  double scale = 1.0, const ObsSinks& sinks = {});

/// The health-detector context implied by a machine configuration (reserve
/// floor, ring capacity, retune cost) — pass to obs::Sampler's constructor.
obs::HealthContext healthContextFor(const machine::MachineConfig& cfg);

}  // namespace nwc::apps
