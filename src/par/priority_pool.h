// Concurrent bucketed priority pool — the scheduling-policy backbone of
// the async chaotic-relaxation engine (par/async_engine.h).
//
// A MultiQueue-style relaxed priority pool: W worker lanes × B priority
// buckets, each bucket an independent Chase–Lev deque (par/steal_deque.h).
// The owner of a lane pushes into the bucket chosen by the caller's
// priority and pops its own lane lowest bucket first (LIFO within a
// bucket — freshly woken work is hot in cache); a dry owner steals
// bucket-major across all other lanes (lowest bucket of ANY victim
// before higher buckets anywhere), so thieves drain the globally most
// urgent work first.
//
// Priorities are RELAXED, not exact: an item keeps the bucket it was
// pushed with even if its priority metric moves afterwards, and
// concurrent pops may disagree transiently about the best bucket. That is
// the MultiQueue trade — the §4 convergence argument of the paper holds
// for any schedule, so staleness costs at most extra relaxations, never
// correctness. Exactly-once hand-off is inherited per bucket from the
// Chase–Lev deque.
//
// Occupancy hints. A full dry sweep probes W×B deques, and every probe of
// an empty deque still pays the Chase–Lev seq_cst fence. Each lane keeps
// an atomic bitmap of possibly-non-empty buckets (hence B <= 64):
//  * the OWNER sets a bucket's bit before pushing into it, and clears it
//    only after one of its own pops finds that bucket empty — since only
//    the owner adds items, the bucket stays empty until its next push
//    re-sets the bit, so a set bitmap is always a SUPERSET of occupancy;
//  * THIEVES read the bitmap as a probe filter and never write it. A
//    stale set bit costs one wasted probe until the owner's next dry
//    scan; a clear bit is a guarantee, so no item can be overlooked
//    forever (the no-lost-work property the quiescence detector needs).
//
// Both claims — exactly-once hand-off and the superset invariant — are
// model-checked under controlled schedules in tests/test_chk.cpp via the
// Sync parameter (default: the zero-overhead chk::RealSync passthrough).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "chk/sync.h"
#include "par/steal_deque.h"
#include "util/check.h"

namespace kcore::par {

template <typename T, typename Sync = chk::RealSync>
class PriorityPool {
  static_assert(std::is_trivially_copyable_v<T>,
                "bucket slots are atomic<T>: T must be trivially "
                "copyable");

 public:
  /// Hard cap on buckets — one occupancy-bitmap bit per bucket.
  static constexpr std::uint32_t kMaxBuckets = 64;

  PriorityPool(unsigned workers, std::uint32_t buckets) : buckets_(buckets) {
    KCORE_CHECK_MSG(workers >= 1, "priority pool needs at least one lane");
    KCORE_CHECK_MSG(buckets >= 1 && buckets <= kMaxBuckets,
                    "buckets must be in [1, " << kMaxBuckets << "], got "
                                              << buckets);
    lanes_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      lanes_.push_back(std::make_unique<Lane>(buckets, workers));
    }
  }

  [[nodiscard]] unsigned workers() const noexcept {
    return static_cast<unsigned>(lanes_.size());
  }
  [[nodiscard]] std::uint32_t buckets() const noexcept { return buckets_; }

  /// Lane owner only: push `value` with priority `bucket` into the
  /// caller's own lane. Priorities at or past the pool width share the
  /// last bucket (the one clamp — callers pass raw priorities). The
  /// occupancy bit is set first so the bitmap superset invariant never
  /// has a window.
  void push(T value, std::uint32_t bucket, unsigned worker) {
    if (bucket >= buckets_) bucket = buckets_ - 1;
    Lane& lane = *lanes_[worker];
    const std::uint64_t bit = 1ULL << bucket;
    // Single writer per lane bitmap: plain load + store. The hint is a
    // probe FILTER, not a publication channel — a thief that sees the
    // bit before the push below lands just probes an empty deque and
    // moves on; actual element hand-off is synchronized entirely by the
    // Chase–Lev orderings inside the deque.
    const std::uint64_t hint =
        lane.hint.load(std::memory_order_relaxed, "pp.push.read_hint");
    if ((hint & bit) == 0) {
      lane.hint.store(hint | bit, std::memory_order_release,
                      "pp.push.store_hint");
    }
    lane.deque(bucket).push(value);
  }

  /// Lane owner only: pop the caller's own most-urgent work. `probes`
  /// counts deque probe operations (the policy's scan overhead metric).
  [[nodiscard]] bool pop_own(T& out, unsigned worker, std::uint64_t& probes) {
    Lane& lane = *lanes_[worker];
    std::uint64_t hint =
        lane.hint.load(std::memory_order_relaxed, "pp.pop.read_hint");
    while (hint != 0) {
      // The lowest set bit is the most urgent bucket.
      const auto bucket = static_cast<std::uint32_t>(std::countr_zero(hint));
      ++probes;
      if (lane.deque(bucket).pop(out)) return true;
      // Empty from the owner's side: nothing can reappear in this bucket
      // until our own next push, so the bit can be retired.
      const std::uint64_t bit = 1ULL << bucket;
      hint &= ~bit;
      lane.hint.store(hint, std::memory_order_relaxed, "pp.pop.store_hint");
    }
    return false;
  }

  /// Any worker: one bucket-major sweep over the other lanes — the
  /// lowest bucket of ANY victim is drained before higher buckets
  /// anywhere. Each victim's hint bitmap is snapshotted ONCE per
  /// sweep (into the caller's own lane scratch — no allocation, no
  /// re-reads per bucket); the snapshot may be stale in either direction,
  /// which the relaxed-priority contract already tolerates. False when
  /// the sweep found nothing (NOT termination; the caller consults the
  /// quiescence detector).
  [[nodiscard]] bool steal(T& out, unsigned worker, std::uint64_t& probes) {
    const auto n = static_cast<unsigned>(lanes_.size());
    std::uint64_t* snapshot = lanes_[worker]->steal_snapshot.get();
    std::uint64_t any = 0;
    for (unsigned offset = 1; offset < n; ++offset) {
      const unsigned victim = (worker + offset) % n;
      snapshot[offset] = lanes_[victim]->hint.load(std::memory_order_acquire,
                                                   "pp.steal.read_hint");
      any |= snapshot[offset];
    }
    for (std::uint32_t bucket = 0; bucket < buckets_ && any != 0; ++bucket) {
      const std::uint64_t bit = 1ULL << bucket;
      if ((any & bit) == 0) continue;
      for (unsigned offset = 1; offset < n; ++offset) {
        if ((snapshot[offset] & bit) == 0) continue;
        const unsigned victim = (worker + offset) % n;
        ++probes;
        if (lanes_[victim]->deque(bucket).steal(out)) return true;
      }
    }
    return false;
  }

  /// Single-threaded reset between runs: forget all content, keep every
  /// ring allocation (warm re-runs never re-allocate). Must not race with
  /// push/pop/steal.
  void clear() noexcept(!Sync::kInstrumented) {
    for (auto& lane : lanes_) {
      lane->hint.store(0, std::memory_order_relaxed, "pp.clear.store_hint");
      for (std::uint32_t b = 0; b < buckets_; ++b) lane->deque(b).clear();
    }
  }

  /// Tests/monitoring only (single-threaded or owner-side use): the
  /// lane's current hint bitmap and a racy per-bucket size estimate, for
  /// checking the superset invariant at quiescent points.
  [[nodiscard]] std::uint64_t hint_bitmap(unsigned worker) const {
    return lanes_[worker]->hint.load(std::memory_order_relaxed,
                                     "pp.monitor.read_hint");
  }
  [[nodiscard]] std::int64_t bucket_size_estimate(unsigned worker,
                                                  std::uint32_t bucket) const {
    return lanes_[worker]->deque(bucket).size_estimate();
  }

  /// Racy whole-pool size estimate: sums the per-deque estimates of
  /// every hinted bucket (relaxed loads only — safe concurrently with
  /// the workers, but the value is a snapshot of a moving target). Used
  /// by the obs sampler for worklist-depth time series; never a
  /// correctness signal.
  [[nodiscard]] std::uint64_t size_estimate() const {
    std::uint64_t total = 0;
    for (unsigned w = 0; w < lanes_.size(); ++w) {
      std::uint64_t hint = hint_bitmap(w);
      while (hint != 0) {
        const auto bucket =
            static_cast<std::uint32_t>(std::countr_zero(hint));
        hint &= hint - 1;
        const std::int64_t size = bucket_size_estimate(w, bucket);
        if (size > 0) total += static_cast<std::uint64_t>(size);
      }
    }
    return total;
  }

 private:
  struct alignas(64) Lane {
    Lane(std::uint32_t buckets, unsigned workers)
        : deques(new StealDeque<T, Sync>[buckets]),
          steal_snapshot(new std::uint64_t[workers]) {}
    [[nodiscard]] StealDeque<T, Sync>& deque(std::uint32_t bucket) {
      return deques[bucket];
    }
    typename Sync::template Atomic<std::uint64_t> hint{0};
    std::unique_ptr<StealDeque<T, Sync>[]> deques;
    /// Owner-only scratch for steal()'s once-per-sweep hint snapshot.
    std::unique_ptr<std::uint64_t[]> steal_snapshot;
  };

  std::uint32_t buckets_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace kcore::par
