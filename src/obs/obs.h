// kcore::obs — lock-free runtime telemetry, umbrella header.
//
// Three layers (each in its own header; this one adds the per-run glue):
//   1. Metrics  (obs/metrics.h)  — per-worker counter/histogram registry.
//   2. Tracing  (obs/trace.h)    — per-worker span/instant rings, stitched
//                                  into Chrome trace-event JSON.
//   3. Sampling (obs/sampler.h)  — background convergence sampler
//                                  (worklist depth, outstanding work,
//                                  sum-of-estimates: the Fig. 4 proxy).
//
// The glue:
//   * Recorder      — one per run; owns the registry, the rings and the
//                     sampler, hands each worker a WorkerContext.
//   * WorkerContext — what an engine threads into its hot loop; the
//                     OBS_* macros take a possibly-null pointer to one.
//   * RunTelemetry  — the harvested result, carried by DecomposeReport.
//
// Cost discipline: with telemetry not requested (ObsOptions::any()
// false — the default), no Recorder is built and every OBS_* macro's
// null check is a never-taken branch on a pointer that is pinned null.
// The kernel-bench exit gate pins that cost.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "obs/options.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace kcore::obs {

/// Everything one run recorded. DecomposeReport carries it by
/// shared_ptr; absent layers are empty vectors / false flags.
struct RunTelemetry {
  bool has_metrics = false;
  MetricsSnapshot metrics;

  bool has_trace = false;
  std::vector<WorkerTraceDump> trace;  // one dump per worker
  std::uint64_t trace_dropped = 0;     // total events lost to full rings

  std::vector<Sample> samples;  // empty when the sampler was off (or the
                                // run beat the first period)
  double sample_period_ms = 0.0;
};

/// Stitch a harvested telemetry object into Chrome trace-event JSON
/// (the `{"traceEvents": [...]}` format; loadable at ui.perfetto.dev).
/// Emits one 'M' thread_name metadata event per worker, the recorded
/// 'X'/'i' events, and the sampler series as 'C' counter tracks. The
/// per-ring drop counts land in "otherData".
void write_chrome_trace(std::ostream& os, const RunTelemetry& telemetry);

/// Per-worker telemetry handle. Engines hold one pointer per worker and
/// pass it to the OBS_* macros; a null pointer (telemetry off) makes
/// every macro a no-op. All methods must be called by the owning worker
/// thread only.
class WorkerContext {
 public:
  [[nodiscard]] bool tracing() const { return ring_ != nullptr; }
  [[nodiscard]] bool metrics() const { return metrics_; }

  /// Microseconds since the recorder's epoch (one shared steady clock,
  /// so cross-worker timestamps are comparable).
  [[nodiscard]] std::uint64_t now_us() const {
    const auto d = util::SteadyClock::now() - epoch_;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  }

  void instant(const char* name) {
    if (ring_ == nullptr) return;
    ring_->record(TraceEvent{name, now_us(), 0, 'i'});
  }

  void complete(const char* name, std::uint64_t start_us,
                std::uint64_t end_us) {
    if (ring_ == nullptr) return;
    ring_->record(TraceEvent{name, start_us, end_us - start_us, 'X'});
  }

  void add(Counter c, std::uint64_t n = 1) {
    if (metrics_) registry_->add(c, worker_, n);
  }

  void observe(HistogramId h, std::uint64_t value) {
    if (metrics_) registry_->observe(h, worker_, value);
  }

  [[nodiscard]] unsigned worker() const { return worker_; }
  [[nodiscard]] util::SteadyClock::time_point epoch() const { return epoch_; }

 private:
  friend class Recorder;
  TraceRing* ring_ = nullptr;    // null: tracing off
  Registry* registry_ = nullptr;
  bool metrics_ = false;         // false: counters/histograms off
  unsigned worker_ = 0;
  util::SteadyClock::time_point epoch_{};
};

/// RAII span: records an 'X' trace event over its lifetime and, when a
/// valid histogram handle is passed, observes the duration in
/// NANOSECONDS into it. Disengages (single branch, no clock read) when
/// the context is null or neither sink wants the measurement.
class Span {
 public:
  Span(WorkerContext* ctx, const char* name)
      : Span(ctx, name, HistogramId{}) {}

  Span(WorkerContext* ctx, const char* name, HistogramId latency_ns)
      : name_(name), hist_(latency_ns) {
    // Engage only when some sink wants the measurement; otherwise skip
    // even the clock read.
    if (ctx != nullptr &&
        (ctx->tracing() || (ctx->metrics() && hist_.valid()))) {
      ctx_ = ctx;
      start_ = util::SteadyClock::now();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (ctx_ == nullptr) return;
    const auto stop = util::SteadyClock::now();
    if (ctx_->tracing()) {
      const auto us = [this](util::SteadyClock::time_point t) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                t - ctx_->epoch())
                .count());
      };
      ctx_->complete(name_, us(start_), us(stop));
    }
    if (hist_.valid()) {
      ctx_->observe(
          hist_, static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         stop - start_)
                         .count()));
    }
  }

 private:
  WorkerContext* ctx_ = nullptr;
  const char* name_;
  HistogramId hist_;
  util::SteadyClock::time_point start_{};
};

/// One run's telemetry state: registry + rings + sampler + the worker
/// contexts. Engines construct it via make() (null when telemetry is
/// off), call worker(w) per worker thread, optionally start_sampler()
/// around the pool, and harvest() after the workers join.
class Recorder {
 public:
  Recorder(unsigned workers, const ObsOptions& options);

  /// Null unless `options` asks for some telemetry — the one check
  /// engines need.
  [[nodiscard]] static std::unique_ptr<Recorder> make(
      unsigned workers, const ObsOptions& options) {
    if (!options.any()) return nullptr;
    return std::make_unique<Recorder>(workers, options);
  }

  [[nodiscard]] const ObsOptions& options() const { return options_; }
  [[nodiscard]] unsigned workers() const { return workers_; }
  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] bool metrics_on() const { return options_.metrics; }

  /// Stable per-worker context pointer (valid for the Recorder's life).
  [[nodiscard]] WorkerContext* worker(unsigned w) { return &contexts_[w]; }

  /// Launch the background sampler (no-op when sample_period_ms <= 0).
  void start_sampler(Sampler::Probe probe);
  /// Join it (idempotent; harvest() also stops it).
  void stop_sampler();

  /// Stop the sampler, snapshot the registry, dump the rings. Call after
  /// the workers have joined.
  [[nodiscard]] RunTelemetry harvest();

 private:
  ObsOptions options_;
  unsigned workers_;
  Registry registry_;
  std::vector<TraceRing> rings_;  // empty unless options_.trace
  std::vector<WorkerContext> contexts_;
  std::unique_ptr<Sampler> sampler_;
  util::SteadyClock::time_point epoch_;
};

}  // namespace kcore::obs

// --- hot-path macros --------------------------------------------------------
// `ctx` is always a (possibly null) obs::WorkerContext*; a null ctx
// makes each macro a no-op.

#define KCORE_OBS_CONCAT_IMPL(a, b) a##b
#define KCORE_OBS_CONCAT(a, b) KCORE_OBS_CONCAT_IMPL(a, b)

/// RAII span for the rest of the enclosing scope:
///   OBS_SPAN(ctx, "relax");              — trace only
///   OBS_SPAN(ctx, "relax", relax_ns);    — trace + latency histogram
#define OBS_SPAN(ctx, ...)                                      \
  const ::kcore::obs::Span KCORE_OBS_CONCAT(kcore_obs_span_,    \
                                            __LINE__)((ctx), __VA_ARGS__)

/// Point event in the trace.
#define OBS_INSTANT(ctx, name)                    \
  do {                                            \
    if ((ctx) != nullptr) (ctx)->instant((name)); \
  } while (0)

/// counter += n on the calling worker's slot.
#define OBS_COUNT(ctx, counter, n)                       \
  do {                                                   \
    if ((ctx) != nullptr) (ctx)->add((counter), (n));    \
  } while (0)

/// Record a value into a histogram.
#define OBS_OBSERVE(ctx, hist, value)                        \
  do {                                                       \
    if ((ctx) != nullptr) (ctx)->observe((hist), (value));   \
  } while (0)
