// The chaotic-relaxation kernel: the one worker loop every async caller
// runs.
//
// Theorems 1–2 make the protocol converge to the exact coreness from ANY
// safe upper-bound table. Static decomposition (par/async_engine.cpp:
// the table starts at the degrees) and live repair (live/repair.cpp: the
// table starts at the previous fixed point, raised on the insertion
// region) are therefore one algorithm with two starting tables. The
// caller fills the estimate table and seeds the worklist; relax() runs
// the pool to detector-confirmed quiescence:
//
//  * ONE shared atomic estimate table — no epochs, no double buffering,
//    no barriers. Readers may observe half-propagated states; Theorems 1–2
//    make every such state safe.
//  * A pluggable SCHEDULING POLICY (core::SchedPolicy): because any
//    schedule converges, pop order is a pure performance lever. The
//    dirty-vertex pool is a bucketed priority pool (par/priority_pool.h)
//    of Chase–Lev deques, and every vertex is pushed with its current
//    estimate as priority. The policy only sets the pool's width: lifo
//    has one bucket per worker (the classic LIFO/steal path, every
//    priority clamps to bucket 0), bound has one bucket per estimate up
//    to the cap and pops lowest first (the peeling frontier).
//  * A lost-wakeup-safe re-enqueue protocol: one atomic in-queue flag per
//    vertex. schedule() enqueues only on the flag's 0->1 exchange (a
//    vertex sits in at most one bucket); a worker clears the flag — also
//    with an exchange, so every flag write is an RMW and the release
//    sequence never breaks — BEFORE reading its inputs. An estimate that
//    drops after the clear re-flags and re-enqueues the vertex; one that
//    dropped before is visible to the read (the clearing exchange
//    synchronizes with every earlier flag RMW). Either way the update is
//    never lost. The protocol is identical under every policy — the pool
//    only changes which flagged vertex is popped next.
//  * SUPPORT-COUNTED WAKES on a one-worker pool with the targeted filter
//    on — the support counter of SemiCore* (Wen, Qin, Zhang, Lin and Yu,
//    ICDE 2016). support[v] is the number of v's neighbors whose
//    estimate was >= est[v] when v last relaxed (refine() reports it for
//    free). Invariant, for every vertex v not in the queue:
//        support[v] <= #{u in N(v) : est[u] >= est[v]}.
//    When u lowers from `stored` to `refined`, that count falls only for
//    a neighbor v with refined < est[v] <= stored, so exactly those
//    decrement; a raise between live repairs only grows it. While
//    support[v] >= est[v], computeIndex(v) is still est[v] and relaxing
//    v would be wasted, so v is woken only once support[v] < est[v].
//    Support 0, the trivial bound of a fresh or warm-started table,
//    keeps the targeted wake (and never wraps below zero). A vertex
//    whose own edges or estimate changed outside a relaxation is seeded,
//    so it recounts before its support is trusted again. The rule needs the relaxations serialized: with
//    two workers v can relax against a stale est[u] (counting u in its
//    support) while u, after its CAS-min, reads a stale est[v] and
//    decides no wake is due — the wake that would re-examine v is lost.
//    With more than one worker the targeted wake runs unchanged.
//  * Concurrent quiescence detection: core::QuiescenceDetector counts
//    outstanding work (add on every enqueue, finish after a vertex is
//    fully processed, including the wakes it issued), and an idle worker
//    that finds the counter at zero runs the confirmation pass — the §3.3
//    centralized detector ported to shared memory.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/compute_index.h"
#include "graph/graph.h"
#include "obs/obs.h"
#include "par/async_engine.h"
#include "par/async_worklist.h"

namespace kcore::par {

/// Relax `tables.est` to the exact coreness of `g`, starting from the
/// items seeded into `tables.worklist`, on its workers() threads (the
/// caller's thread is worker 0) in its pool's pop order, and return
/// the run's profile (re_enqueues counts the activations beyond the
/// seeded items).
///
/// `Adjacency` is anything with `neighbors(u)` returning a
/// std::span<const graph::NodeId> that no worker mutates during the run.
/// `tables.est` must hold a safe upper bound of every coreness. On a
/// one-worker pool with `targeted` on, `tables.support` must keep the
/// invariant above for every vertex that is not seeded (all zero always
/// does).
/// With a non-null `recorder` the async.* counters, histograms and relax
/// spans are recorded into it; a null one turns every hook off. The
/// first exception a worker throws stops the pool and is rethrown here
/// after every worker joined.
///
/// `static`: internal linkage makes the counting kernel behind refine() a
/// TU-local, called-once function that GCC 12 inlines. As a COMDAT
/// template it stayed out of line, and perfbench static-decompose p50
/// rose ~12% (x86-64 Xeon, one thread).
template <typename Adjacency>
static AsyncStats relax(const Adjacency& g, AsyncRunContext& tables,
                        bool targeted, obs::Recorder* recorder) {
  std::vector<std::atomic<graph::NodeId>>& est = tables.est;
  AsyncWorklist& worklist = *tables.worklist;
  const unsigned workers = worklist.workers();
  const std::uint64_t seeded = worklist.total_enqueues();
  std::atomic<bool> abort{false};
  std::atomic<std::uint64_t> skipped_total{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  // Every hot-path hook below is an OBS_* macro (empty when compiled
  // out) or a branch on a condition that constant-folds to false, so the
  // uninstrumented run is unchanged.
  obs::Counter c_relax;
  obs::Counter c_steals;
  obs::Counter c_pop_scans;
  obs::Counter c_skipped;
  obs::Counter c_detector;
  obs::Counter c_wakes;
  obs::HistogramId h_relax_ns;
  obs::HistogramId h_scan_len;
  obs::HistogramId h_wake_fanout;
  if (recorder && recorder->metrics_on()) {
    obs::Registry& reg = recorder->registry();
    c_relax = reg.counter("async.relaxations");
    c_steals = reg.counter("async.steals");
    c_pop_scans = reg.counter("async.pop_scans");
    c_skipped = reg.counter("async.skipped_recomputes");
    c_detector = reg.counter("async.detector_passes");
    c_wakes = reg.counter("async.wakes");
    h_relax_ns = reg.histogram("async.relax_ns");
    h_scan_len = reg.histogram("async.acquire_scan_len");
    h_wake_fanout = reg.histogram("async.wake_fanout");
  }

  // Support-counted wakes need the relaxations serialized (block
  // comment above), so they run only on a one-worker pool.
  std::vector<graph::NodeId>& support = tables.support;
  const bool support_wakes = targeted && workers == 1;

  auto worker_fn = [&](unsigned w) {
    try {
      core::IndexScratch& scratch = tables.scratch[w].index;
      obs::WorkerContext* const octx =
          recorder ? recorder->worker(w) : nullptr;
      // obs::kEnabled folds the whole metrics path away at compile time
      // when the telemetry layer is off.
      const bool metrics_on =
          obs::kEnabled && octx != nullptr && octx->metrics();
      // A woken neighbor's estimate feeds the targeted filter and is its
      // priority; a one-bucket pool with the filter off needs neither
      // load. Worker-local: read through the lambda's capture it cost
      // ~2% of perfbench static-decompose p50 (x86-64 Xeon, one thread).
      const bool load_neighbor_estimate =
          targeted || worklist.pool().buckets() > 1;
      std::uint64_t prev_scans = 0;
      std::uint64_t skipped = 0;
      unsigned idle_sweeps = 0;
      while (!worklist.done() && !abort.load(std::memory_order_relaxed)) {
        const std::uint32_t u = worklist.acquire(w);
        if (u == AsyncWorklist::kNone) {
          // Nothing runnable HERE is not termination: another worker may
          // still be relaxing (its wakes will repopulate the lanes).
          // Only the detector's confirmed zero ends the run.
          if (worklist.try_confirm()) {
            OBS_INSTANT(octx, "quiescence.confirmed");
            break;
          }
          // Back off while dry: a long sequential dependency chain can
          // idle most of the pool, and a tight retry loop would ping-pong
          // the detector counter's cache line against the one worker
          // whose add/finish RMWs are the critical path.
          if (++idle_sweeps < 64) {
            std::this_thread::yield();
          } else {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          continue;
        }
        idle_sweeps = 0;
        if (metrics_on) {
          // Probes accumulated since the previous successful acquire —
          // this acquire's bucket scan plus any dry sweeps in between.
          const std::uint64_t scans = worklist.tally(w).pop_scans;
          octx->observe(h_scan_len, scans - prev_scans);
          prev_scans = scans;
        }
        // Spans the whole relaxation of u (through the wakes and the
        // finish below — the destructor fires at the end of the
        // iteration); also feeds the latency histogram, in ns.
        OBS_SPAN(octx, "relax", h_relax_ns);
        worklist.begin(u);  // clear-before-read: the wakeup handshake
        const graph::NodeId stored = est[u].load(std::memory_order_acquire);
        const std::span<const graph::NodeId> nbrs = g.neighbors(u);
        // A live deletion can leave the stored estimate ABOVE the degree,
        // the one place refine()'s "k never exceeds the degree" premise
        // breaks. coreness <= degree always, so the clamp keeps a safe
        // upper bound; on a static graph it never fires (estimates start
        // at the degree and only fall).
        const graph::NodeId k =
            std::min<graph::NodeId>(stored, static_cast<graph::NodeId>(
                                                nbrs.size()));
        // Skip-scan + allocation-free streamed count, shared with
        // bsp-par (core::IndexScratch::refine): the estimates stream
        // straight from the shared table into the epoch-stamped kernel.
        const core::IndexScratch::Refined r = scratch.refine(
            nbrs.size(), k, [&](std::size_t i) {
              return est[nbrs[i]].load(std::memory_order_acquire);
            });
        const graph::NodeId refined = r.value;
        if (r.skipped) {
          ++skipped;
          OBS_COUNT(octx, c_skipped, 1);
        }
        if (support_wakes) support[u] = r.support;
        if (refined < stored) {
          // Publish via CAS-min: est only decreases, and a concurrent
          // relaxation of u may already have gone lower.
          graph::NodeId cur = est[u].load(std::memory_order_relaxed);
          bool lowered = false;
          while (cur > refined) {
            if (est[u].compare_exchange_weak(cur, refined,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
              lowered = true;
              break;
            }
          }
          // Wake only if WE published new information; a racing lowerer
          // that beat us to <= refined already woke the neighborhood for
          // its (stronger) value.
          if (lowered) {
            std::uint32_t woken = 0;
            for (const graph::NodeId v : nbrs) {
              const graph::NodeId ev =
                  load_neighbor_estimate
                      ? est[v].load(std::memory_order_acquire)
                      : 0;
              // §3.1.2 targeted wake, still safe under asynchrony: est[v]
              // never rises, so est[v] <= refined stays true forever and
              // v's computeIndex can never be lowered by this estimate.
              if (targeted && ev <= refined) continue;
              if (support_wakes) {
                // One worker: u leaves v's support only if it crossed
                // from >= est[v] to below it; v's h-index must fall only
                // once its support drops below est[v].
                graph::NodeId& s = support[v];
                if (ev <= stored && s > 0) --s;
                if (s >= ev) continue;
              }
              if (worklist.schedule(v, w, ev)) ++woken;
            }
            if (metrics_on) {
              octx->add(c_wakes, woken);
              octx->observe(h_wake_fanout, woken);
            }
          }
        }
        // Retire AFTER the wakes: the detector counts our follow-on work
        // before this unit stops being outstanding.
        worklist.finish();
      }
      skipped_total.fetch_add(skipped, std::memory_order_relaxed);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      abort.store(true, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) pool.emplace_back(worker_fn, w);
  worker_fn(0);
  for (auto& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);

  if (recorder && recorder->metrics_on()) {
    // Fold the worklist's per-worker scheduling tallies into the
    // registry (single-threaded here — the workers have joined), so the
    // registry carries every "async.*" number the returned stats do.
    obs::Registry& reg = recorder->registry();
    for (unsigned w = 0; w < workers; ++w) {
      const auto tally = worklist.tally(w);
      reg.add(c_relax, w, tally.enqueues);
      reg.add(c_steals, w, tally.steals);
      reg.add(c_pop_scans, w, tally.pop_scans);
    }
    reg.add(c_detector, 0, worklist.detector().passes());
  }
  // Exactly-once scheduling (begins == enqueues, pinned by the worklist
  // stress test) means the relaxation count IS the enqueue count.
  AsyncStats stats;
  stats.relaxations = worklist.total_enqueues();
  stats.steals = worklist.total_steals();
  stats.re_enqueues = stats.relaxations - seeded;
  stats.detector_passes = worklist.detector().passes();
  stats.skipped_recomputes = skipped_total.load(std::memory_order_relaxed);
  stats.pop_scans = worklist.total_pop_scans();
  return stats;
}

}  // namespace kcore::par
