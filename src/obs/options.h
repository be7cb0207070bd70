// Runtime telemetry knobs (kcore::obs).
//
// This header is deliberately tiny and dependency-free: it is included
// by core/run_options.h, so every layer sees the ObsOptions struct
// without pulling in the telemetry implementation (obs/obs.h).
// Telemetry is always compiled in; these knobs select it per run.
#pragma once

#include <cstdint>

namespace kcore::obs {

/// Per-run telemetry selection, carried inside core::RunOptions. The
/// default-constructed value means "record nothing" and is free: engines
/// only build telemetry state when any() is true.
struct ObsOptions {
  /// Record per-worker counters/histograms and return a MetricsSnapshot
  /// in DecomposeReport::telemetry.
  bool metrics = false;

  /// Record per-worker span/instant events into fixed-capacity rings
  /// (drop-and-count once full) for Chrome-trace export.
  bool trace = false;

  /// Ring capacity per worker, in events. ~48 bytes/event; the default
  /// (16384) bounds a trace at < 1 MiB per worker.
  std::uint32_t trace_capacity = 16384;

  /// Period of the background convergence sampler in milliseconds;
  /// 0 disables it. Each tick snapshots outstanding work, worklist
  /// depth and the sum of estimates (the Fig. 4 error-proxy numerator).
  /// A run that finishes before the first period elapses records zero
  /// samples.
  double sample_period_ms = 0.0;

  /// True when this run asked for any telemetry at all.
  [[nodiscard]] bool any() const {
    return metrics || trace || sample_period_ms > 0.0;
  }
};

}  // namespace kcore::obs
