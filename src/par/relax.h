// The chaotic-relaxation kernel: the one worker loop of the static async
// protocol (bsp-async, par/async_engine.cpp, whose table starts at the
// degrees).
//
// Theorems 1–2 make the protocol converge to the exact coreness from ANY
// safe upper-bound table, so the loop assumes nothing about where the
// table starts. The caller fills the estimate table and seeds the
// context's queue; relax() runs it to quiescence. It has two paths,
// chosen at entry by the context's worker count; no option selects one.
//
// Both paths share:
//  * ONE atomic estimate table — no epochs, no double buffering, no
//    barriers. Readers may observe half-propagated states; Theorems 1–2
//    make every such state safe. The table stays atomic at one worker
//    too, so the obs sampler may read it mid-run.
//  * A SCHEDULING POLICY (core::SchedPolicy): because any schedule
//    converges, pop order is a pure performance lever. Every vertex is
//    queued with its current estimate as priority; the policy only sets
//    the queue's width. lifo has one bucket (every priority clamps to
//    it); bound has one bucket per estimate up to the cap and pops
//    lowest first (the peeling frontier). LIFO within a bucket.
//  * The §3.1.2 TARGETED WAKE: when u lowers to `refined`, a neighbor v
//    with est[v] <= refined is not woken. est[v] never rises within a
//    run, so u's new estimate can never lower v's computeIndex.
//
// THE ONE-WORKER PATH (par/one_worker.h) is the paper's node state kept
// per vertex. Nothing runs concurrently with it, so it uses no atomic
// RMW at all: plain per-bucket stacks with the pool's occupancy bitmap
// and pop order, plain in-queue bytes, no quiescence detector (the queue
// running dry is quiescence) and a relaxed store in place of CAS-min.
// Each vertex v keeps counts of its neighbors' estimates relative to its
// own estimate est[v]:
//  * its SUPPORT, the neighbors at or above est[v] — the support counter
//    of SemiCore* (Wen, Qin, Zhang, Lin and Yu, ICDE 2016). Invariant,
//    for every vertex v not in the queue:
//        support[v] <= #{u in N(v) : est[u] >= est[v]},
//    with equality once v has relaxed in the current run. 0, the trivial
//    bound of a fresh table or a warm start, means no information.
//  * its HISTOGRAM, made at its first relaxation in a run: slot j <
//    est[v] counts the neighbors at exactly j. It generalises the
//    support from one count to the distribution below it.
// How they are used:
//  * A vertex's first relaxation in a run counts through IndexScratch
//    and copies the counts below its new estimate into a fresh
//    histogram. Later relaxations walk down from the support through
//    the histogram, in O(drop) instead of O(degree).
//  * When u lowers from `stored` to `refined`, the wake pass visits the
//    neighbors v with est[v] > refined; the others need nothing. u moves
//    from v's count at min(stored, est[v]) to v's slot `refined`. At
//    est[v] that is a support decrement (0 stays 0); below it, a move
//    between histogram slots, if v has a histogram. computeIndex(v) can
//    fall only once support[v] < est[v], so only then is v woken; a
//    vertex with support 0 gets the plain targeted wake.
//  * The counts tell the wake pass how many neighbors are above
//    `refined`, so it stops after the last of them. On node orders with
//    locality (an edge list numbered in order of first appearance) the
//    high-estimate neighbors of a hub come early in its list.
//  * Histograms start empty every run. Supports stay in the context,
//    but only a vertex that is not seeded relies on its own: a fresh
//    context starts at 0, and a static run (par/async_engine.cpp) seeds
//    every vertex, so a reused context's stale supports only filter
//    wakes to vertices that are queued already.
// The counts need the relaxations serialized: with two workers v can
// relax against a stale est[u] (counting u at its old level) while u
// reads a stale est[v] and skips the update, so v's counts overstate.
//
// THE POOL PATH (workers > 1) keeps the targeted wake only, and adds:
//  * a bucketed priority pool (par/priority_pool.h) of Chase–Lev deques,
//    one lane per worker, with bucket-major stealing;
//  * a lost-wakeup-safe re-enqueue protocol: one atomic in-queue flag per
//    vertex. schedule() enqueues only on the flag's 0->1 exchange (a
//    vertex sits in at most one bucket); a worker clears the flag — also
//    with an exchange, so every flag write is an RMW and the release
//    sequence never breaks — BEFORE reading its inputs. An estimate that
//    drops after the clear re-flags and re-enqueues the vertex; one that
//    dropped before is visible to the read (the clearing exchange
//    synchronizes with every earlier flag RMW). Either way the update is
//    never lost;
//  * a CAS-min publish, since two workers may relax one vertex at once;
//  * concurrent quiescence detection: core::QuiescenceDetector counts
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

/// The async.* metric ids both paths record into; all default (off)
/// without a metrics-enabled recorder.
struct RelaxMetrics {
  explicit RelaxMetrics(obs::Recorder* recorder) {
    if (!recorder || !recorder->metrics_on()) return;
    obs::Registry& reg = recorder->registry();
    relaxations = reg.counter("async.relaxations");
    steals = reg.counter("async.steals");
    pop_scans = reg.counter("async.pop_scans");
    skipped = reg.counter("async.skipped_recomputes");
    detector = reg.counter("async.detector_passes");
    wakes = reg.counter("async.wakes");
    relax_ns = reg.histogram("async.relax_ns");
    scan_len = reg.histogram("async.acquire_scan_len");
    wake_fanout = reg.histogram("async.wake_fanout");
  }

  obs::Counter relaxations;
  obs::Counter steals;
  obs::Counter pop_scans;
  obs::Counter skipped;
  obs::Counter detector;
  obs::Counter wakes;
  obs::HistogramId relax_ns;
  obs::HistogramId scan_len;
  obs::HistogramId wake_fanout;
};

/// The one-worker path (block comment above). Its pops, skips and wakes
/// are those of a one-lane pool whose wakes are filtered by the support
/// alone (tests/test_async_property.cpp pins them).
template <typename Adjacency>
static AsyncStats relax_one_worker(const Adjacency& g,
                                   AsyncRunContext& tables, bool targeted,
                                   obs::Recorder* recorder) {
  std::vector<std::atomic<graph::NodeId>>& est = tables.est;
  BucketStacks& queue = tables.one_worker->queue;
  NeighbourCounts& counts = tables.one_worker->counts;
  core::IndexScratch& scratch = tables.scratch[0].index;
  counts.reset_histograms();
  const std::uint64_t seeded = queue.enqueues();

  // Every hot-path hook below is an OBS_* macro or a branch on
  // metrics_on; without a recorder both are never-taken null checks.
  const RelaxMetrics m(recorder);
  obs::WorkerContext* const octx = recorder ? recorder->worker(0) : nullptr;
  const bool metrics_on = octx != nullptr && octx->metrics();
  std::uint64_t prev_scans = 0;
  std::uint64_t skipped = 0;
  std::uint64_t reads = 0;
  for (;;) {
    const std::uint32_t u = queue.acquire();
    if (u == BucketStacks::kNone) {
      OBS_INSTANT(octx, "quiescence.confirmed");
      break;
    }
    if (metrics_on) {
      const std::uint64_t scans = queue.pop_scans();
      octx->observe(m.scan_len, scans - prev_scans);
      prev_scans = scans;
    }
    OBS_SPAN(octx, "relax", m.relax_ns);
    queue.begin(u);
    const graph::NodeId stored = est[u].load(std::memory_order_relaxed);
    const std::span<const graph::NodeId> nbrs = g.neighbors(u);
    const auto degree = static_cast<graph::NodeId>(nbrs.size());
    graph::NodeId refined = stored;
    bool skip = false;
    // The neighbors above the new estimate, when the counts give it: the
    // wake pass below can stop after the last of them.
    graph::NodeId above = degree;
    if (graph::NodeId* const h = counts.find(u)) {
      // The histogram was made at an estimate <= the degree and follows
      // it down, so no clamp is due. Skipped exactly when refine()'s
      // scan would find no neighbor below `stored`; otherwise walk down
      // as compute_index_stream does, folding the slots into the support.
      if (stored > 0) {
        graph::NodeId cum = counts.support(u);
        skip = cum == degree;
        while (refined >= 2 && cum < refined) {
          --refined;
          cum += h[refined];
        }
        counts.support(u) = cum;
        if (refined < stored) above = cum - h[refined];
      }
    } else {
      // First relaxation in this run. A warm table (any safe upper bound
      // is a legal start) can hold an estimate ABOVE the degree, the one
      // place refine()'s premise breaks; coreness <= degree, so the
      // clamp keeps a safe upper bound.
      const graph::NodeId k = std::min(stored, degree);
      const core::IndexScratch::Refined r =
          scratch.refine(nbrs.size(), k, [&](std::size_t i) {
            return est[nbrs[i]].load(std::memory_order_relaxed);
          });
      refined = r.value;
      skip = r.skipped;
      reads += r.reads;
      counts.support(u) = r.support;
      graph::NodeId* const made = counts.make(u, refined);
      if (!skip) {
        for (graph::NodeId j = 0; j < refined; ++j) made[j] = scratch.count(j);
        if (refined < k) above = r.support - scratch.count(refined);
      }
    }
    if (skip) {
      ++skipped;
      OBS_COUNT(octx, m.skipped, 1);
    }
    if (refined < stored) {
      est[u].store(refined, std::memory_order_relaxed);
      std::uint32_t woken = 0;
      // With the targeted filter on, only the `above` neighbors need
      // anything, so the pass stops after the last of them. With it off
      // `left` starts at the degree and cannot run out early.
      graph::NodeId left = targeted ? above : degree;
      std::size_t i = 0;
      for (; i < nbrs.size() && left > 0; ++i) {
        const graph::NodeId v = nbrs[i];
        const graph::NodeId ev = est[v].load(std::memory_order_relaxed);
        if (ev <= refined) {
          if (targeted) continue;
        } else {
          --left;
          // u moves from v's count at min(stored, ev) to its slot
          // refined. At ev it leaves v's support (0, no information,
          // stays 0); below ev it leaves v's histogram, if v has one.
          graph::NodeId& s = counts.support(v);
          graph::NodeId* const hv = counts.find(v);
          if (ev <= stored) {
            if (s > 0) --s;
          } else if (hv) {
            --hv[stored];
          }
          if (hv) ++hv[refined];
          // v's h-index must fall only once its support is below ev.
          if (targeted && s >= ev) continue;
        }
        if (queue.schedule(v, ev)) ++woken;
      }
      reads += i;
      if (metrics_on) {
        octx->add(m.wakes, woken);
        octx->observe(m.wake_fanout, woken);
      }
    }
  }

  AsyncStats stats;
  stats.relaxations = queue.enqueues();
  stats.re_enqueues = stats.relaxations - seeded;
  stats.detector_passes = 1;  // the one look at the empty queue
  stats.skipped_recomputes = skipped;
  stats.pop_scans = queue.pop_scans();
  stats.neighbor_reads = reads;
  if (recorder && recorder->metrics_on()) {
    obs::Registry& reg = recorder->registry();
    reg.add(m.relaxations, 0, stats.relaxations);
    reg.add(m.steals, 0, 0);
    reg.add(m.pop_scans, 0, stats.pop_scans);
    reg.add(m.detector, 0, stats.detector_passes);
  }
  return stats;
}

/// The pool path (block comment above), on the worklist's workers()
/// threads; the caller's thread is worker 0.
template <typename Adjacency>
static AsyncStats relax_pool(const Adjacency& g, AsyncRunContext& tables,
                             bool targeted, obs::Recorder* recorder) {
  std::vector<std::atomic<graph::NodeId>>& est = tables.est;
  AsyncWorklist& worklist = *tables.worklist;
  const unsigned workers = worklist.workers();
  const std::uint64_t seeded = worklist.total_enqueues();
  std::atomic<bool> abort{false};
  std::atomic<std::uint64_t> skipped_total{0};
  std::atomic<std::uint64_t> reads_total{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const RelaxMetrics m(recorder);

  auto worker_fn = [&](unsigned w) {
    try {
      core::IndexScratch& scratch = tables.scratch[w].index;
      obs::WorkerContext* const octx =
          recorder ? recorder->worker(w) : nullptr;
      const bool metrics_on = octx != nullptr && octx->metrics();
      // A woken neighbor's estimate feeds the targeted filter and is its
      // priority; a one-bucket pool with the filter off needs neither
      // load. Worker-local: read through the lambda's capture it cost
      // ~2% of perfbench static-decompose p50 (x86-64 Xeon, one thread).
      const bool load_neighbor_estimate =
          targeted || worklist.pool().buckets() > 1;
      std::uint64_t prev_scans = 0;
      std::uint64_t skipped = 0;
      std::uint64_t reads = 0;
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
          octx->observe(m.scan_len, scans - prev_scans);
          prev_scans = scans;
        }
        // Spans the whole relaxation of u (through the wakes and the
        // finish below — the destructor fires at the end of the
        // iteration); also feeds the latency histogram, in ns.
        OBS_SPAN(octx, "relax", m.relax_ns);
        worklist.begin(u);  // clear-before-read: the wakeup handshake
        const graph::NodeId stored = est[u].load(std::memory_order_acquire);
        const std::span<const graph::NodeId> nbrs = g.neighbors(u);
        // The same clamp as the one-worker path's first relaxation.
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
        reads += r.reads;
        if (r.skipped) {
          ++skipped;
          OBS_COUNT(octx, m.skipped, 1);
        }
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
            if (load_neighbor_estimate) reads += nbrs.size();
            std::uint32_t woken = 0;
            for (const graph::NodeId v : nbrs) {
              const graph::NodeId ev =
                  load_neighbor_estimate
                      ? est[v].load(std::memory_order_acquire)
                      : 0;
              // The targeted wake, still safe under asynchrony: est[v]
              // never rises, so est[v] <= refined stays true forever.
              if (targeted && ev <= refined) continue;
              if (worklist.schedule(v, w, ev)) ++woken;
            }
            if (metrics_on) {
              octx->add(m.wakes, woken);
              octx->observe(m.wake_fanout, woken);
            }
          }
        }
        // Retire AFTER the wakes: the detector counts our follow-on work
        // before this unit stops being outstanding.
        worklist.finish();
      }
      skipped_total.fetch_add(skipped, std::memory_order_relaxed);
      reads_total.fetch_add(reads, std::memory_order_relaxed);
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
      reg.add(m.relaxations, w, tally.enqueues);
      reg.add(m.steals, w, tally.steals);
      reg.add(m.pop_scans, w, tally.pop_scans);
    }
    reg.add(m.detector, 0, worklist.detector().passes());
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
  stats.neighbor_reads = reads_total.load(std::memory_order_relaxed);
  return stats;
}

/// Relax `tables.est` to the exact coreness of `g`, starting from the
/// items seeded into the context's queue, in its pop order, and return
/// the run's profile (re_enqueues counts the activations beyond the
/// seeded items). A one-worker context runs relax_one_worker on the
/// caller's thread; any other runs relax_pool.
///
/// `Adjacency` is anything with `neighbors(u)` returning a
/// std::span<const graph::NodeId> that nothing mutates during the run.
/// `tables.est` must hold a safe upper bound of every coreness, and every
/// vertex whose estimate may be above its computeIndex must be seeded.
/// At one worker the context's supports must keep the invariant in the
/// block comment for every vertex that is not seeded (a fresh context's
/// zeros always do).
/// With a non-null `recorder` the async.* counters, histograms and relax
/// spans are recorded into it; a null one turns every hook off. On the
/// pool path the first exception a worker throws stops the pool and is
/// rethrown here after every worker joined.
///
/// `static`: internal linkage keeps the counting kernel behind refine()
/// TU-local, where GCC 12 inlines it. As a COMDAT template it stayed out
/// of line, and perfbench static-decompose p50 rose ~12% (x86-64 Xeon,
/// one thread).
template <typename Adjacency>
static AsyncStats relax(const Adjacency& g, AsyncRunContext& tables,
                        bool targeted, obs::Recorder* recorder) {
  if (tables.one_worker) {
    return relax_one_worker(g, tables, targeted, recorder);
  }
  return relax_pool(g, tables, targeted, recorder);
}

}  // namespace kcore::par
