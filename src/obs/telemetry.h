// Telemetry: the per-run observability bundle (DESIGN.md §6).
//
// One TelemetryConfig block rides SystemConfig; everything defaults OFF so
// seed determinism and performance are untouched. Every subsystem records
// through the system's one obs::Recorder (recorder.h), whose always-on
// flight ring needs no telemetry; with tracing off the recorder has no
// trace sink and a trace-only event costs one inline mask test. When any
// piece is enabled, VehicularCloudSystem::start() builds a Telemetry,
// attaches its TraceRecorder as the recorder's trace sink (reaching net,
// cloud, admission, fault injection, storage and DAG alike), registers each
// subsystem's metrics and starts the sampler and the kernel profiler.
#pragma once

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vcl::obs {

struct TelemetryConfig {
  // Structured sim-time event tracing (TraceRecorder).
  bool tracing = false;
  std::uint32_t trace_categories = kAllCategories;
  std::size_t trace_capacity = 1 << 16;

  // Periodic metric sampling (MetricsRegistry time series).
  bool metrics = false;
  SimTime sample_period = 1.0;

  // Per-label wall-clock/event attribution in sim::Simulator.
  bool profile_kernel = false;

  [[nodiscard]] bool any() const {
    return tracing || metrics || profile_kernel;
  }
};

struct Telemetry {
  explicit Telemetry(const TelemetryConfig& cfg)
      : config(cfg), trace(cfg.trace_capacity, cfg.trace_categories) {}

  TelemetryConfig config;
  TraceRecorder trace;
  MetricsRegistry metrics;
};

// Writes the bundle into `dir` (created if missing): `trace.jsonl` and
// `trace_chrome.json` when tracing is on, `metrics.csv` (plus
// `sketches.json` when any tail sketches are registered) when sampling is.
// This is the per-replication export path exp::Campaign routes through
// `--telemetry-dir <dir>/cell<c>/rep<k>/`. Returns false on any IO error.
bool write_telemetry(const Telemetry& telemetry, const std::string& dir);

}  // namespace vcl::obs
