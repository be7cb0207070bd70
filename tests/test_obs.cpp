// kcore::obs — the lock-free telemetry layer: exactly-once counter
// aggregation under concurrent writers, power-of-two histogram bucket
// boundaries, trace-ring drop accounting, Chrome-trace well-formedness,
// sampler timing semantics, and the end-to-end plumbing through
// RunOptions -> api::decompose -> DecomposeReport::telemetry.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/api.h"
#include "api/report_json.h"
#include "api/session.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "par/async_engine.h"
#include "seq/kcore_seq.h"

namespace kcore {
namespace {

// --- minimal JSON well-formedness checker ----------------------------------
// Enough of a parser to catch what hand-rolled emitters get wrong:
// unbalanced braces, bad commas, unescaped control characters / quotes.
// Returns true iff `s` is one valid JSON value.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

bool is_valid_json(std::string_view s) { return JsonChecker(s).valid(); }

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(is_valid_json(R"({"a":[1,2.5,-3e4],"b":"x\n","c":null})"));
  EXPECT_FALSE(is_valid_json("{"));
  EXPECT_FALSE(is_valid_json("[1,]"));
  EXPECT_FALSE(is_valid_json("{\"a\" 1}"));
  EXPECT_FALSE(is_valid_json("\"raw\ncontrol\""));
}

// --- metrics: exactly-once aggregation --------------------------------------

TEST(ObsRegistry, ExactlyOnceAggregationUnderConcurrentWriters) {
  // Owner-vs-thieves shape: W writers hammer their own slots while a
  // "monitor" thread snapshots concurrently (the sampler's read path).
  // After the join the aggregate must be exact; the concurrent snapshots
  // must never exceed the final total (counters only grow).
  constexpr unsigned kWorkers = 4;
  constexpr std::uint64_t kPerWorker = 200000;
  obs::Registry registry(kWorkers);
  const obs::Counter counter = registry.counter("stress.ops");
  const obs::HistogramId hist = registry.histogram("stress.values");

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> max_seen{0};
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = registry.snapshot();
      const std::uint64_t total = snap.value("stress.ops");
      std::uint64_t prev = max_seen.load(std::memory_order_relaxed);
      while (total > prev &&
             !max_seen.compare_exchange_weak(prev, total)) {
      }
    }
  });

  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWorker; ++i) {
        registry.add(counter, w, 1);
        registry.observe(hist, w, i & 0xff);
      }
    });
  }
  for (auto& t : workers) t.join();
  stop.store(true, std::memory_order_release);
  monitor.join();

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.value("stress.ops"), kWorkers * kPerWorker);
  EXPECT_EQ(registry.total(counter), kWorkers * kPerWorker);
  EXPECT_LE(max_seen.load(), kWorkers * kPerWorker);
  const auto* h = snap.histogram("stress.values");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kWorkers * kPerWorker);
  EXPECT_EQ(h->max, 0xffu);

  // reset() zeroes values but keeps names and handles.
  registry.reset();
  const auto zeroed = registry.snapshot();
  EXPECT_EQ(zeroed.value("stress.ops"), 0u);
  ASSERT_NE(zeroed.histogram("stress.values"), nullptr);
  EXPECT_EQ(zeroed.histogram("stress.values")->count, 0u);
}

TEST(ObsRegistry, NameRegistrationIsIdempotent) {
  obs::Registry registry(1);
  const obs::Counter a = registry.counter("same");
  const obs::Counter b = registry.counter("same");
  registry.add(a, 0, 3);
  registry.add(b, 0, 4);
  EXPECT_EQ(registry.snapshot().value("same"), 7u);
  EXPECT_EQ(registry.snapshot().counters.size(), 1u);
}

// --- histogram bucket boundaries --------------------------------------------

TEST(ObsHistogram, PowerOfTwoBucketBoundaries) {
  obs::Registry registry(1);
  const obs::HistogramId h = registry.histogram("h");
  // Bucket 0: zeros. Bucket i (i >= 1): bit_width(v) == i, i.e.
  // v in [2^(i-1), 2^i). Probe each boundary from both sides.
  registry.observe(h, 0, 0);  // bucket 0
  registry.observe(h, 0, 1);  // bucket 1: [1, 2)
  registry.observe(h, 0, 2);  // bucket 2: [2, 4)
  registry.observe(h, 0, 3);  // bucket 2
  registry.observe(h, 0, 4);  // bucket 3: [4, 8)
  registry.observe(h, 0, 7);  // bucket 3
  registry.observe(h, 0, 8);  // bucket 4: [8, 16)

  const obs::MetricsSnapshot metrics = registry.snapshot();
  const auto* snap = metrics.histogram("h");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->buckets[0], 1u);
  EXPECT_EQ(snap->buckets[1], 1u);
  EXPECT_EQ(snap->buckets[2], 2u);
  EXPECT_EQ(snap->buckets[3], 2u);
  EXPECT_EQ(snap->buckets[4], 1u);
  EXPECT_EQ(snap->count, 7u);
  EXPECT_EQ(snap->sum, 0u + 1 + 2 + 3 + 4 + 7 + 8);
  EXPECT_EQ(snap->max, 8u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_floor(0), 0u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_floor(1), 1u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_floor(4), 8u);
}

TEST(ObsHistogram, HugeValuesLandInOverflowBucket) {
  obs::Registry registry(1);
  const obs::HistogramId h = registry.histogram("h");
  registry.observe(h, 0, UINT64_MAX);
  registry.observe(h, 0, std::uint64_t{1} << 40);
  const obs::MetricsSnapshot metrics = registry.snapshot();
  const auto* snap = metrics.histogram("h");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->buckets[obs::HistogramSnapshot::kBuckets - 1], 2u);
  EXPECT_EQ(snap->max, UINT64_MAX);
}

// --- trace ring -------------------------------------------------------------

TEST(ObsTraceRing, DropsNewestAndCountsExactly) {
  obs::TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.record(obs::TraceEvent{"e", i, 0, 'i'});
  }
  ASSERT_EQ(ring.events().size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  // Drop-newest keeps the OLDEST events — timestamps 0..3, monotone.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.events()[i].ts_us, i);
  }
  ring.clear();
  EXPECT_EQ(ring.events().size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_GE(ring.capacity(), 4u);
}

// --- chrome trace output ----------------------------------------------------

TEST(ObsTrace, ChromeTraceJsonIsWellFormed) {
  obs::RunTelemetry telemetry;
  telemetry.has_trace = true;
  telemetry.trace.resize(2);
  telemetry.trace[0].tid = 0;
  telemetry.trace[0].events = {
      {"relax \"quoted\"\n", 10, 5, 'X'},  // name needing escapes
      {"quiescence.confirmed", 20, 0, 'i'},
  };
  telemetry.trace[1].tid = 1;
  telemetry.trace[1].events = {{"relax", 12, 3, 'X'}};
  telemetry.trace[1].dropped = 7;
  telemetry.trace_dropped = 7;
  telemetry.sample_period_ms = 1.0;
  telemetry.samples = {{0.5, 3, 2, 100.0, 0}, {1.0, 0, 0, 90.0, 0}};

  std::ostringstream os;
  obs::write_chrome_trace(os, telemetry);
  const std::string json = os.str();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // sampler tracks
  EXPECT_NE(json.find("\"dropped_events\":7"), std::string::npos);
}

// --- sampler ----------------------------------------------------------------

TEST(ObsSampler, InstantStopRecordsZeroSamples) {
  // The first sample is due one full period after start(); stopping
  // before that must record nothing (the "run beat the sampler" case).
  obs::Sampler sampler(1000.0, [](obs::Sample& s) { s.outstanding = 1; });
  sampler.start();
  sampler.stop();
  EXPECT_TRUE(sampler.samples().empty());
}

TEST(ObsSampler, ZeroPeriodNeverStarts) {
  bool probed = false;
  obs::Sampler sampler(0.0, [&](obs::Sample&) { probed = true; });
  sampler.start();
  sampler.stop();
  EXPECT_FALSE(probed);
  EXPECT_TRUE(sampler.samples().empty());
}

TEST(ObsSampler, CollectsMonotoneTimestamps) {
  obs::Sampler sampler(1.0, [](obs::Sample& s) { s.worklist_depth = 42; });
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.stop();
  const auto& samples = sampler.samples();
  ASSERT_FALSE(samples.empty());
  double prev = 0.0;
  for (const auto& s : samples) {
    EXPECT_GT(s.t_ms, prev);
    EXPECT_EQ(s.worklist_depth, 42u);
    prev = s.t_ms;
  }
}

// --- options / gating -------------------------------------------------------

TEST(ObsOptions, AnyReflectsRequestedLayers) {
  obs::ObsOptions options;
  EXPECT_FALSE(options.any());
  options.metrics = true;
  EXPECT_TRUE(options.any());
  options = {};
  options.trace = true;
  EXPECT_TRUE(options.any());
  options = {};
  options.sample_period_ms = 1.0;
  EXPECT_TRUE(options.any());
}

TEST(ObsRecorder, MakeReturnsNullWhenNothingRequested) {
  EXPECT_EQ(obs::Recorder::make(4, obs::ObsOptions{}), nullptr);
}

TEST(ObsMacros, NullContextIsNoOp) {
  // The uninstrumented path: no Recorder, a null context, and every
  // macro compiles and does nothing.
  obs::WorkerContext* ctx = nullptr;
  OBS_SPAN(ctx, "noop");
  OBS_INSTANT(ctx, "noop");
  OBS_COUNT(ctx, obs::Counter{}, 1);
  OBS_OBSERVE(ctx, obs::HistogramId{}, 1);
  SUCCEED();
}

TEST(ObsValidate, ObsKnobsRejectedForUninstrumentedProtocols) {
  const graph::Graph g = graph::gen::clique(8);
  api::DecomposeRequest request;
  request.graph = &g;
  request.protocol = "bz";
  request.options.obs.metrics = true;
  const auto problems = api::validate(request);
  ASSERT_FALSE(problems.empty());
  bool names_protocol = false;
  for (const auto& p : problems) {
    if (p.find("'bz'") != std::string::npos) names_protocol = true;
  }
  EXPECT_TRUE(names_protocol);
}

TEST(ObsValidate, NegativeSamplePeriodRejected) {
  core::RunOptions options;
  options.obs.sample_period_ms = -1.0;
  EXPECT_FALSE(options.validate().empty());
}

TEST(ObsValidate, NanSamplePeriodAndDuplicateProbabilityRejected) {
  // Every comparison with NaN is false, so a check written as "< 0"
  // lets it through; each NaN must be refused naming its flag.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  core::RunOptions options;
  options.obs.sample_period_ms = nan;
  std::vector<std::string> problems = options.validate();
  ASSERT_EQ(problems.size(), 1U);
  EXPECT_NE(problems[0].find("--sample-period"), std::string::npos)
      << problems[0];

  options = core::RunOptions{};
  options.faults.duplicate_probability = nan;
  problems = options.validate();
  ASSERT_EQ(problems.size(), 1U);
  EXPECT_NE(problems[0].find("--dup-prob"), std::string::npos)
      << problems[0];
}

// --- end-to-end through the facade ------------------------------------------

TEST(ObsEndToEnd, AsyncMetricsMatchStatsView) {
  // With metrics on, the stats par::relax returns and the registry's
  // async.* counters are two independent counts of the same run — they
  // must agree exactly, and the counters must satisfy the engine's own
  // invariants (relaxations = seeded + re-enqueues). One worker runs the
  // plain-queue path, four the pool path; both feed the same counters.
  const graph::Graph g = graph::gen::barabasi_albert(4000, 3, 7);
  for (const unsigned threads : {1U, 4U}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    api::RunOptions options;
    options.threads = threads;
    options.obs.metrics = true;
    const auto report = api::decompose(g, "bsp-async", options);
    ASSERT_NE(report.telemetry, nullptr);
    ASSERT_TRUE(report.telemetry->has_metrics);
    const auto& metrics = report.telemetry->metrics;
    const auto& extras = std::get<api::AsyncExtras>(report.extras);
    EXPECT_EQ(extras.relaxations, metrics.value("async.relaxations"));
    EXPECT_EQ(extras.steals, metrics.value("async.steals"));
    EXPECT_EQ(extras.pop_scans, metrics.value("async.pop_scans"));
    EXPECT_EQ(extras.skipped_recomputes,
              metrics.value("async.skipped_recomputes"));
    EXPECT_EQ(extras.detector_passes,
              metrics.value("async.detector_passes"));
    EXPECT_EQ(extras.re_enqueues,
              metrics.value("async.relaxations") - g.num_nodes());
    EXPECT_GE(extras.relaxations, g.num_nodes());
    // The latency histogram saw every relaxation the span wrapped, and
    // the scan-length histogram every successful pop.
    const auto* relax_ns = metrics.histogram("async.relax_ns");
    ASSERT_NE(relax_ns, nullptr);
    EXPECT_EQ(relax_ns->count, extras.relaxations);
    const auto* scan_len = metrics.histogram("async.acquire_scan_len");
    ASSERT_NE(scan_len, nullptr);
    EXPECT_EQ(scan_len->count, extras.relaxations);
    // Coreness unaffected by instrumentation.
    EXPECT_EQ(report.coreness, seq::coreness_bz(g));
  }
}

TEST(ObsEndToEnd, WarmRunTelemetryNeverAccumulatesAcrossRuns) {
  // Regression pin for the warm-run path: the obs Recorder (and the
  // worklist tallies feeding it) is created/reset per run, so the THIRD
  // warm run over one prepared Session must still satisfy the exact
  // metrics == extras parity a one-shot does — any cross-run leak of
  // counters, tallies or detector state shows up here as a doubled or
  // drifting value.
  const graph::Graph g = graph::gen::barabasi_albert(4000, 3, 7);
  for (const unsigned threads : {1U, 4U}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    api::RunOptions options;
    options.threads = threads;
    options.obs.metrics = true;
    api::Session session(g, "bsp-async", options);
    api::DecomposeReport report;
    for (int run = 0; run < 3; ++run) report = session.run();
    ASSERT_NE(report.telemetry, nullptr);
    ASSERT_TRUE(report.telemetry->has_metrics);
    const auto& metrics = report.telemetry->metrics;
    const auto& extras = std::get<api::AsyncExtras>(report.extras);
    EXPECT_EQ(extras.relaxations, metrics.value("async.relaxations"));
    EXPECT_EQ(extras.steals, metrics.value("async.steals"));
    EXPECT_EQ(extras.pop_scans, metrics.value("async.pop_scans"));
    EXPECT_EQ(extras.skipped_recomputes,
              metrics.value("async.skipped_recomputes"));
    EXPECT_EQ(extras.detector_passes,
              metrics.value("async.detector_passes"));
    // Every node still relaxes at least once per run — a registry that
    // leaked from the previous runs would report ~3x this floor against
    // an extras view of ~1x and fail the equalities above.
    EXPECT_EQ(extras.re_enqueues,
              metrics.value("async.relaxations") - g.num_nodes());
    EXPECT_GE(extras.relaxations, g.num_nodes());
    const auto* relax_ns = metrics.histogram("async.relax_ns");
    ASSERT_NE(relax_ns, nullptr);
    EXPECT_EQ(relax_ns->count, extras.relaxations);
    EXPECT_EQ(report.coreness, seq::coreness_bz(g));
  }
}

TEST(ObsEndToEnd, AsyncTraceIsStructurallySound) {
  const graph::Graph g = graph::gen::barabasi_albert(2000, 3, 3);
  api::RunOptions options;
  options.threads = 3;
  options.obs.trace = true;
  options.obs.trace_capacity = 512;  // small ring: exercise dropping too
  const auto report = api::decompose(g, "bsp-async", options);
  ASSERT_NE(report.telemetry, nullptr);
  ASSERT_TRUE(report.telemetry->has_trace);
  const auto& telemetry = *report.telemetry;
  ASSERT_EQ(telemetry.trace.size(), 3u);
  std::size_t total_events = 0;
  for (const auto& dump : telemetry.trace) {
    total_events += dump.events.size();
    EXPECT_LE(dump.events.size(), 512u);
    // Per-worker timestamps monotone non-decreasing; spans well-formed.
    std::uint64_t prev_ts = 0;
    for (const auto& event : dump.events) {
      EXPECT_GE(event.ts_us, prev_ts);
      prev_ts = event.ts_us;
      EXPECT_TRUE(event.ph == 'X' || event.ph == 'i');
      EXPECT_NE(event.name, nullptr);
    }
  }
  EXPECT_GT(total_events, 0u);

  // The stitched Chrome trace parses and contains one thread_name
  // metadata record per worker.
  std::ostringstream os;
  obs::write_chrome_trace(os, telemetry);
  const std::string json = os.str();
  EXPECT_TRUE(is_valid_json(json));
  std::size_t name_records = 0;
  for (std::size_t at = json.find("\"thread_name\""); at != std::string::npos;
       at = json.find("\"thread_name\"", at + 1)) {
    ++name_records;
  }
  EXPECT_EQ(name_records, 3u);
}

TEST(ObsEndToEnd, AsyncSamplerSumEstimatesAreMonotoneUpperBounds) {
  // Theorem 2: estimates only decrease and never drop below the true
  // coreness, so every sampled sum is >= the truth sum and the series
  // is non-increasing — the Fig. 4 error proxy, without round barriers.
  const graph::Graph g = graph::gen::barabasi_albert(30000, 4, 11);
  const auto truth = seq::coreness_bz(g);
  const double truth_sum = std::accumulate(
      truth.begin(), truth.end(), 0.0,
      [](double acc, graph::NodeId k) { return acc + k; });
  api::RunOptions options;
  options.threads = 2;
  options.obs.sample_period_ms = 0.2;
  const auto report = api::decompose(g, "bsp-async", options);
  ASSERT_NE(report.telemetry, nullptr);
  EXPECT_EQ(report.telemetry->sample_period_ms, 0.2);
  // The run may legitimately beat the first period — assert structure
  // over whatever samples exist, not a count.
  double prev = std::numeric_limits<double>::infinity();
  for (const auto& sample : report.telemetry->samples) {
    EXPECT_LE(sample.sum_estimates, prev);
    EXPECT_GE(sample.sum_estimates, truth_sum);
    EXPECT_GE(sample.outstanding, 0);
    prev = sample.sum_estimates;
  }
}

TEST(ObsEndToEnd, BspParRoundTraceAndMetrics) {
  const graph::Graph g = graph::gen::barabasi_albert(3000, 3, 5);
  api::RunOptions options;
  options.threads = 2;
  options.obs.metrics = true;
  options.obs.trace = true;
  const auto report = api::decompose(g, "bsp-par", options);
  ASSERT_NE(report.telemetry, nullptr);
  ASSERT_TRUE(report.telemetry->has_metrics);
  ASSERT_TRUE(report.telemetry->has_trace);
  const auto& metrics = report.telemetry->metrics;
  // bsp.emitted aggregates exactly the traffic the engine reported.
  EXPECT_EQ(metrics.value("bsp.emitted"), report.traffic.total_messages);
  // One superstep span per (worker, round) lands in the histogram.
  const auto* superstep = metrics.histogram("bsp.superstep_ns");
  ASSERT_NE(superstep, nullptr);
  EXPECT_EQ(superstep->count,
            2 * report.traffic.rounds_executed);
  // The round decorator emits "round" spans on every worker.
  bool saw_round_span = false;
  for (const auto& dump : report.telemetry->trace) {
    for (const auto& event : dump.events) {
      if (std::string_view(event.name) == "round") saw_round_span = true;
    }
  }
  EXPECT_TRUE(saw_round_span);
}

TEST(ObsEndToEnd, OneToManyParMetricsMirrorTraffic) {
  const graph::Graph g = graph::gen::barabasi_albert(2000, 3, 9);
  api::RunOptions options;
  options.threads = 2;
  options.num_hosts = 8;
  options.obs.metrics = true;
  const auto report = api::decompose(g, "one-to-many-par", options);
  ASSERT_NE(report.telemetry, nullptr);
  ASSERT_TRUE(report.telemetry->has_metrics);
  EXPECT_EQ(report.telemetry->metrics.value("par.rounds"),
            report.traffic.rounds_executed);
  EXPECT_EQ(report.telemetry->metrics.value("par.messages"),
            report.traffic.total_messages);
}

TEST(ObsEndToEnd, TelemetryAbsentWhenNotRequested) {
  const graph::Graph g = graph::gen::clique(32);
  api::RunOptions options;
  options.threads = 2;
  const auto report = api::decompose(g, "bsp-async", options);
  EXPECT_EQ(report.telemetry, nullptr);
}

TEST(ObsEndToEnd, PlanClampsObsForUninstrumentedProtocols) {
  // A sweep mixing bz with bsp-async keeps the metrics request only
  // where it can be honored — the bz cells run clean instead of the
  // whole Plan failing validation.
  const graph::Graph g = graph::gen::clique(24);
  api::PlanSpec spec;
  spec.protocols = {"bz", "bsp-async"};
  spec.threads = {2};
  spec.base.obs.metrics = true;
  api::Plan plan(g, spec);
  EXPECT_TRUE(plan.validate().empty());
  const auto results = plan.run();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& cell : results) {
    if (cell.cell.protocol == "bz") {
      EXPECT_EQ(cell.last.telemetry, nullptr);
    } else {
      ASSERT_NE(cell.last.telemetry, nullptr);
      EXPECT_TRUE(cell.last.telemetry->has_metrics);
    }
  }
}

TEST(ObsEndToEnd, ReportJsonIsWellFormed) {
  const graph::Graph g = graph::gen::barabasi_albert(1000, 3, 13);
  api::RunOptions options;
  options.threads = 2;
  options.obs.metrics = true;
  options.obs.trace = true;
  options.obs.sample_period_ms = 0.5;
  const auto report = api::decompose(g, "bsp-async", options);
  std::ostringstream os;
  api::write_report_json(os, report);
  EXPECT_TRUE(is_valid_json(os.str())) << os.str();
  EXPECT_NE(os.str().find("\"telemetry\""), std::string::npos);
}

}  // namespace
}  // namespace kcore
