// computeIndex — Algorithm 2 of the paper.
//
// Given the current estimates of a node's neighbors and the node's own
// current estimate k, return the largest value i <= k such that at least i
// neighbors have estimate >= i. This is the local operator whose repeated
// application drives both distributed algorithms; by Theorem 1 its fixed
// point is exactly the coreness.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace kcore::core {

using graph::NodeId;

/// "+infinity" estimate for neighbors not heard from yet. Any real
/// estimate (bounded by degree) is below this.
inline constexpr NodeId kEstimateInfinity = graph::kInvalidNode;

/// Algorithm 2, literally. `neighbor_estimates` are the est[] entries for
/// every neighbor of u (order irrelevant); `k` is u's current estimate
/// (the cap). Runs in O(|neighbors| + k). Every run path uses
/// IndexScratch below; this kernel is the reference the tests check
/// IndexScratch against, and kernel_bench's baseline.
///
/// Returns 0 when k == 0 (isolated node); otherwise a value in [1, k].
[[nodiscard]] inline NodeId compute_index(
    std::span<const NodeId> neighbor_estimates, NodeId k,
    std::vector<NodeId>& counts) {
  if (k == 0) return 0;
  counts.assign(static_cast<std::size_t>(k) + 1, 0);
  // count[j] = number of neighbors whose (clamped) estimate is exactly j.
  for (const NodeId est : neighbor_estimates) {
    const NodeId j = std::min(k, est);
    ++counts[j];
  }
  // Suffix-sum so count[i] = number of neighbors with estimate >= i.
  for (NodeId i = k; i >= 2; --i) {
    counts[i - 1] = static_cast<NodeId>(counts[i - 1] + counts[i]);
  }
  // Largest i with count[i] >= i.
  NodeId i = k;
  while (i > 1 && counts[i] < i) --i;
  return i;
}

/// Convenience overload allocating its own scratch (tests).
[[nodiscard]] inline NodeId compute_index(
    std::span<const NodeId> neighbor_estimates, NodeId k) {
  std::vector<NodeId> scratch;
  return compute_index(neighbor_estimates, k, scratch);
}

// --- epoch-stamped hot-path variant -----------------------------------------
// The vector-scratch kernel above pays an O(k) counts.assign on EVERY
// call, plus two more O(k) passes (suffix sum + answer scan) — three
// sweeps over the slot array even when the estimate barely moves.
// IndexScratch replaces the clear with lazy epoch validation — each slot
// packs (stamp, count) into one 64-bit word and is live only when its
// stamp matches the current call's epoch — and fuses the suffix sum with
// the answer scan into one downward walk that STOPS at the answer. Cost
// drops from O(|neighbors| + 3k) to O(|neighbors| + (k - answer)); at
// the fixed point (answer == k, the common case once the run converges)
// the walk is O(1), and no clear pass ever runs.

/// Reusable epoch-stamped scratch for the hot-path compute_index
/// overloads. One instance per worker thread; grows to the largest k
/// ever seen and never shrinks, so steady-state calls are allocation-free.
class IndexScratch {
 public:
  /// Algorithm 2 with the estimates streamed from a callable:
  /// `estimate_of(i)` returns the estimate of the i-th neighbor. Lets hot
  /// loops read a shared atomic table directly — no gather buffer.
  template <typename EstimateOf>
  [[nodiscard]] NodeId compute_index_stream(std::size_t num_neighbors,
                                            NodeId k,
                                            EstimateOf&& estimate_of) {
    NodeId support = 0;
    return compute_index_stream(num_neighbors, k, estimate_of, support);
  }

  /// As above, also reporting the answer's SUPPORT: the number of
  /// neighbors whose estimate is >= the answer (the downward walk's
  /// running count at exit, so it costs nothing extra).
  template <typename EstimateOf>
  [[nodiscard]] NodeId compute_index_stream(std::size_t num_neighbors,
                                            NodeId k, EstimateOf&& estimate_of,
                                            NodeId& support) {
    if (k == 0) {
      support = static_cast<NodeId>(num_neighbors);
      return 0;
    }
    ensure(static_cast<std::size_t>(k) + 1);
    if (++epoch_ == 0) {
      // One amortized re-zero every 2^32 calls keeps the stamps 32-bit
      // (and the slot a single cache-friendly word).
      std::fill(slot_.begin(), slot_.end(), 0);
      epoch_ = 1;
    }
    const std::uint64_t stamped = static_cast<std::uint64_t>(epoch_) << 32;
    // Low word: neighbors whose clamped estimate is exactly j; valid only
    // when the high word matches this call's epoch (stale slots read as
    // implicitly zero — no clear pass).
    for (std::size_t i = 0; i < num_neighbors; ++i) {
      const NodeId j = std::min(k, estimate_of(i));
      const std::uint64_t slot = slot_[j];
      slot_[j] = (slot >> 32) == epoch_ ? slot + 1 : stamped | 1;
    }
    // Downward walk: cum = #neighbors with estimate >= i. The largest
    // i >= 2 with cum >= i is the answer (floor 1, matching the vector
    // kernel's contract); the walk exits there instead of sweeping to 1.
    NodeId cum = live_count(slot_[k]);
    NodeId i = k;
    while (i >= 2) {
      if (cum >= i) break;
      --i;
      cum = static_cast<NodeId>(cum + live_count(slot_[i]));
    }
    support = cum;
    return i;
  }

  /// Algorithm 2 over a materialized estimate span (kernel benches and
  /// callers that already hold a buffer).
  [[nodiscard]] NodeId compute_index(std::span<const NodeId> neighbor_estimates,
                                     NodeId k) {
    return compute_index_stream(
        neighbor_estimates.size(), k,
        [neighbor_estimates](std::size_t i) { return neighbor_estimates[i]; });
  }

  /// What refine() learned about one vertex.
  struct Refined {
    NodeId value = 0;    // the new estimate, computeIndex(k)
    NodeId support = 0;  // neighbors whose estimate is >= value
    bool skipped = false;  // the fast path ran, not the counting kernel
    std::size_t reads = 0;  // estimate_of calls: the skip-scan + the count
  };

  /// The relaxation step both hot loops (bsp-par, bsp-async) share:
  /// skip-scan, then count. computeIndex is monotone and k never exceeds
  /// the degree (estimates start there and only decrease), so if no
  /// neighbor estimate sits below k then count_ge(k) == degree >= k and
  /// the answer is exactly k — the counting kernel is a no-op and is
  /// skipped (its support is then the degree). The early-exit scan is
  /// cheap in the hot case too: a woken vertex usually has the lowered
  /// neighbor near the front.
  template <typename EstimateOf>
  [[nodiscard]] Refined refine(std::size_t num_neighbors, NodeId k,
                               EstimateOf&& estimate_of) {
    Refined r;
    r.support = static_cast<NodeId>(num_neighbors);
    if (k == 0) return r;
    for (std::size_t i = 0; i < num_neighbors; ++i) {
      if (estimate_of(i) < k) {
        r.value =
            compute_index_stream(num_neighbors, k, estimate_of, r.support);
        r.reads = i + 1 + num_neighbors;
        return r;
      }
    }
    r.value = k;
    r.skipped = true;
    r.reads = num_neighbors;
    return r;
  }

  /// After a counting call (compute_index_stream, or a refine() that did
  /// not skip) with cap k: the number of neighbors whose estimate was
  /// exactly j, for j < k.
  [[nodiscard]] NodeId count(NodeId j) const noexcept {
    return live_count(slot_[j]);
  }

  /// Current slot capacity (tests/benches: verifies steady state stops
  /// growing).
  [[nodiscard]] std::size_t capacity() const noexcept { return slot_.size(); }

 private:
  [[nodiscard]] NodeId live_count(std::uint64_t slot) const noexcept {
    return (slot >> 32) == epoch_ ? static_cast<NodeId>(slot) : 0;
  }

  void ensure(std::size_t size) {
    if (slot_.size() < size) {
      // Geometric growth so alternating small/large k stops growing after
      // one warm-up pass; fresh slots carry stamp 0 and epoch_ is
      // pre-incremented to >= 1 before first use, so they read as stale.
      std::size_t grown = slot_.empty() ? 64 : slot_.size();
      while (grown < size) grown *= 2;
      slot_.resize(grown, 0);
    }
  }

  std::vector<std::uint64_t> slot_;
  std::uint32_t epoch_ = 0;
};

}  // namespace kcore::core
