// The one-worker relaxation path's private state (par/relax.h): a plain
// bucket queue in place of the concurrent worklist, and per-vertex counts
// of the neighbours' estimates in place of re-reading every neighbour on
// every relaxation.
//
// With one worker nothing races the queue, so it needs no atomics: the
// in-queue flags are plain bytes, there is no quiescence detector (an
// empty queue IS quiescence) and the per-bucket Chase–Lev deques become
// plain stacks. The pop order is the priority pool's at one lane
// (par/priority_pool.h): the lowest occupied bucket first, LIFO within a
// bucket, with the same occupancy bitmap and the same probe count, so
// the same pushes pop in the same order.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/run_options.h"
#include "graph/graph.h"
#include "par/priority_pool.h"
#include "util/check.h"

namespace kcore::par {

/// Single-threaded bucketed worklist over dense ids in [0, size). Only
/// the thread that acquires may call it, except for size_estimate(),
/// which any thread may read.
class BucketStacks {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// lifo: one bucket, every priority clamps to it. bound: one bucket per
  /// priority up to the pool's cap, lowest popped first.
  BucketStacks(std::uint32_t size, core::SchedPolicy policy)
      : in_queue_(size, 0),
        stacks_(policy == core::SchedPolicy::kBound
                    ? PriorityPool<std::uint32_t>::kMaxBuckets
                    : 1) {}

  [[nodiscard]] std::uint32_t buckets() const noexcept {
    return static_cast<std::uint32_t>(stacks_.size());
  }

  /// Forget every queued item and tally. Costs the items still queued
  /// (none after a completed run), not the id range, and keeps every
  /// stack's capacity.
  void reset() {
    for (auto& stack : stacks_) {
      for (const std::uint32_t item : stack) in_queue_[item] = 0;
      stack.clear();
    }
    hint_ = 0;
    enqueues_ = 0;
    pop_scans_ = 0;
    queued_.store(0, std::memory_order_relaxed);
  }

  /// Enqueue `item` at priority `bucket` unless it is already queued;
  /// true when this call enqueued it. Seeding a run is the same call.
  bool schedule(std::uint32_t item, std::uint32_t bucket) {
    if (in_queue_[item] != 0) return false;
    in_queue_[item] = 1;
    if (bucket >= buckets()) bucket = buckets() - 1;
    hint_ |= 1ULL << bucket;
    stacks_[bucket].push_back(item);
    ++enqueues_;
    queued_.store(queued_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    return true;
  }

  /// Pop the next item, or kNone when the queue is empty. Every bucket
  /// probed counts one pop scan; a bucket's bit is retired only when a
  /// probe finds it empty, as the pool's owner pop does.
  [[nodiscard]] std::uint32_t acquire() {
    while (hint_ != 0) {
      const auto bucket = static_cast<std::uint32_t>(std::countr_zero(hint_));
      ++pop_scans_;
      std::vector<std::uint32_t>& stack = stacks_[bucket];
      if (!stack.empty()) {
        const std::uint32_t item = stack.back();
        stack.pop_back();
        queued_.store(queued_.load(std::memory_order_relaxed) - 1,
                      std::memory_order_relaxed);
        return item;
      }
      hint_ &= ~(1ULL << bucket);
    }
    return kNone;
  }

  /// Clear the acquired item's flag before its inputs are read, so a
  /// wake issued while it relaxes queues it again.
  void begin(std::uint32_t item) { in_queue_[item] = 0; }

  [[nodiscard]] std::uint64_t enqueues() const noexcept { return enqueues_; }
  [[nodiscard]] std::uint64_t pop_scans() const noexcept { return pop_scans_; }
  /// Items queued now; the only member other threads (the obs sampler)
  /// may read during a run.
  [[nodiscard]] std::uint64_t size_estimate() const noexcept {
    return queued_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::uint8_t> in_queue_;
  std::vector<std::vector<std::uint32_t>> stacks_;
  std::uint64_t hint_ = 0;  // bit b set: stacks_[b] may be non-empty
  std::uint64_t enqueues_ = 0;
  std::uint64_t pop_scans_ = 0;
  std::atomic<std::uint64_t> queued_{0};
};

/// What each vertex knows about its neighbours' estimates, relative to
/// its own estimate k:
///  * its SUPPORT, a lower bound on the neighbours at or above k, 0 for
///    no information, and exact once the vertex has relaxed in the
///    current run. It carries over from run to run (par/relax.h says why
///    that stays sound).
///  * its HISTOGRAM, made at its first relaxation in a run: slot j < k
///    counts the neighbours whose estimate is j. Estimates only fall
///    within a run, so it never needs to grow. All histograms live in
///    one arena that a run fills and the next run empties (its capacity
///    stays).
/// Together they let a later relaxation find computeIndex by walking
/// down from k instead of re-reading every neighbour.
class NeighbourCounts {
 public:
  /// The reserve keeps data() non-null, so even a zero-slot histogram
  /// has a non-null address.
  explicit NeighbourCounts(graph::NodeId n) : node_(n) {
    owners_.reserve(n);
    arena_.reserve(static_cast<std::size_t>(n) + 1);
  }

  /// Room for `slots` histogram slots without growing. A histogram has
  /// at most its vertex's degree in slots, so a graph's arc count covers
  /// any run on it; pages the run does not fill are never touched.
  void reserve(std::size_t slots) { arena_.reserve(slots); }

  /// Drop every histogram (the start of a run). Costs the vertices that
  /// had one.
  void reset_histograms() {
    for (const graph::NodeId u : owners_) node_[u].at = kNone;
    owners_.clear();
    arena_.clear();
  }

  /// Forget every support, for a table adopted from elsewhere.
  void forget_support() {
    for (Node& node : node_) node.support = 0;
  }

  [[nodiscard]] graph::NodeId& support(graph::NodeId u) {
    return node_[u].support;
  }

  /// u's histogram, or null when u has not relaxed in this run. The
  /// pointer is valid until the next make().
  [[nodiscard]] graph::NodeId* find(graph::NodeId u) {
    const std::uint32_t at = node_[u].at;
    return at == kNone ? nullptr : arena_.data() + at;
  }

  /// A zeroed histogram for u with slots [0, slots); u must have none.
  [[nodiscard]] graph::NodeId* make(graph::NodeId u, graph::NodeId slots) {
    const std::size_t at = arena_.size();
    KCORE_CHECK_MSG(at + slots < kNone, "histogram arena is full");
    node_[u].at = static_cast<std::uint32_t>(at);
    owners_.push_back(u);
    arena_.resize(at + slots, 0);
    return arena_.data() + at;
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  // One entry per vertex, so the wake pass reads both with one access.
  struct Node {
    graph::NodeId support = 0;
    std::uint32_t at = kNone;  // arena offset of the histogram
  };

  std::vector<Node> node_;
  std::vector<graph::NodeId> owners_;
  std::vector<graph::NodeId> arena_;
};

/// Everything the one-worker path keeps between runs of one context.
struct OneWorkerState {
  OneWorkerState(graph::NodeId n, core::SchedPolicy sched)
      : queue(n, sched), counts(n) {}
  BucketStacks queue;
  NeighbourCounts counts;
};

}  // namespace kcore::par
