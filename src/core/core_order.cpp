#include "core/core_order.h"

#include <algorithm>
#include <functional>
#include <string>

#include "seq/kcore_seq.h"

namespace kcore::core {

using graph::NodeId;

namespace {

// Labels live in [1, kSpace). An insertion at an open end of a list (the
// head or the tail) leaves a fixed kStep gap instead of halving the open
// range, so runs of head or tail insertions never close a gap.
constexpr std::uint64_t kSpace = std::uint64_t{1} << 62;
constexpr std::uint64_t kStep = std::uint64_t{1} << 32;

}  // namespace

// --- OrderList --------------------------------------------------------------

void OrderList::reset(NodeId elements) {
  label_.assign(elements, 0);
  prev_.assign(elements, kNone);
  next_.assign(elements, kNone);
  head_.clear();
  tail_.clear();
  relabelled_ = 0;
}

NodeId OrderList::add_element() {
  label_.push_back(0);
  prev_.push_back(kNone);
  next_.push_back(kNone);
  return static_cast<NodeId>(label_.size() - 1);
}

void OrderList::insert_after(NodeId list, NodeId after, NodeId x) {
  if (list >= num_lists()) {
    head_.resize(static_cast<std::size_t>(list) + 1, kNone);
    tail_.resize(static_cast<std::size_t>(list) + 1, kNone);
  }
  for (;;) {
    const NodeId next = after == kNone ? head_[list] : next_[after];
    const std::uint64_t lo = after == kNone ? 0 : label_[after];
    const std::uint64_t hi = next == kNone ? kSpace : label_[next];
    const std::uint64_t gap = hi - lo;
    if (gap >= 2) {
      if (after == kNone && next == kNone) {
        label_[x] = kSpace / 2;
      } else if (next == kNone) {
        label_[x] = lo + std::min(kStep, gap / 2);
      } else if (after == kNone) {
        label_[x] = hi - std::min(kStep, gap / 2);
      } else {
        label_[x] = lo + gap / 2;
      }
      prev_[x] = after;
      next_[x] = next;
      (after == kNone ? head_[list] : next_[after]) = x;
      (next == kNone ? tail_[list] : prev_[next]) = x;
      return;
    }
    relabel_around(after == kNone ? next : after);
  }
}

void OrderList::erase(NodeId list, NodeId x) {
  (prev_[x] == kNone ? head_[list] : next_[prev_[x]]) = next_[x];
  (next_[x] == kNone ? tail_[list] : prev_[next_[x]]) = prev_[x];
  prev_[x] = kNone;
  next_[x] = kNone;
}

void OrderList::relabel_around(NodeId x) {
  // Grow an aligned range of 2^i labels around x until it holds fewer
  // than (4/3)^i elements (one slot reserved for the insertion that
  // found the gap closed), then spread its elements evenly. The spacing
  // is then at least 1.5^i >= 2, so the retried insertion finds a gap.
  NodeId first = x;
  NodeId last = x;
  std::uint64_t count = 1;
  double limit = 1.0;
  for (unsigned i = 1; i <= 62; ++i) {
    limit *= 4.0 / 3.0;
    const std::uint64_t size = std::uint64_t{1} << i;
    const std::uint64_t lo = label_[x] & ~(size - 1);
    while (prev_[first] != kNone && label_[prev_[first]] >= lo) {
      first = prev_[first];
      ++count;
    }
    while (next_[last] != kNone && label_[next_[last]] - lo < size) {
      last = next_[last];
      ++count;
    }
    if (static_cast<double>(count + 1) > limit) continue;
    const std::uint64_t step = size / (count + 1);
    std::uint64_t label = lo;
    for (NodeId y = first;; y = next_[y]) {
      label += step;
      label_[y] = label;
      if (y == last) break;
    }
    relabelled_ += count;
    return;
  }
  KCORE_CHECK_MSG(false, "order labels exhausted around element " << x);
}

// --- CoreOrder --------------------------------------------------------------

void CoreOrder::build() {
  const NodeId n = graph_.num_nodes();
  seq::BzPeel peel = seq::bz_peel</*kCountDegPlus=*/true>(graph_);
  level_ = std::move(peel.level);
  deg_plus_ = std::move(peel.deg_plus);
  count_.assign(n, 0);
  deg_star_.assign(n, 0);
  state_.assign(n, kIdle);
  lists_.reset(n);
  for (const NodeId v : peel.order) lists_.push_back(level_[v], v);
}

std::optional<std::string> CoreOrder::adopt(std::span<const NodeId> levels,
                                            std::span<const NodeId> order) {
  const NodeId n = graph_.num_nodes();
  KCORE_CHECK_MSG(levels.size() == n && order.size() == n,
                  "adopt: " << levels.size() << " levels and " << order.size()
                            << " order entries for " << n << " nodes");
  const auto node = [](NodeId x) { return "node " + std::to_string(x); };
  // Pass 1: positions, and levels never decrease along the order.
  std::vector<NodeId> pos(n, OrderList::kNone);
  for (NodeId i = 0; i < n; ++i) {
    const NodeId x = order[i];
    if (x >= n || pos[x] != OrderList::kNone) {
      return "order entry " + std::to_string(i) + " (" + node(x) +
             ") is out of range or repeated: the order is not a permutation";
    }
    if (i > 0 && levels[x] < levels[order[i - 1]]) {
      return node(x) + " at level " + std::to_string(levels[x]) +
             " follows " + node(order[i - 1]) + " at level " +
             std::to_string(levels[order[i - 1]]) +
             ": levels decrease along the order";
    }
    pos[x] = i;
  }
  // Pass 2: checks (b) and (a) at every node; (b)'s count is its deg+,
  // (a)'s its support count.
  deg_plus_.resize(n);
  count_.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    const NodeId k = levels[u];
    NodeId later = 0;
    NodeId support = 0;
    for (const NodeId v : graph_.neighbors(u)) {
      later += pos[v] > pos[u] ? 1 : 0;
      support += levels[v] >= k ? 1 : 0;
    }
    if (later > k) {
      return node(u) + " has " + std::to_string(later) +
             " neighbors after it in the order, more than its level " +
             std::to_string(k) + " (check b)";
    }
    if (support < k) {
      return node(u) + " has " + std::to_string(support) +
             " neighbors at level " + std::to_string(k) +
             " or above, fewer than its level (check a)";
    }
    deg_plus_[u] = later;
    count_[u] = support;
  }
  level_.assign(levels.begin(), levels.end());
  deg_star_.assign(n, 0);
  state_.assign(n, kIdle);
  lists_.reset(n);
  for (const NodeId v : order) lists_.push_back(level_[v], v);
  return std::nullopt;
}

void CoreOrder::copy_order(std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(level_.size());
  for (NodeId k = 0; k < lists_.num_lists(); ++k) {
    for (NodeId x = lists_.head(k); x != OrderList::kNone;
         x = lists_.next(x)) {
      out.push_back(x);
    }
  }
}

void CoreOrder::push(NodeId x) {
  state_[x] = kQueued;
  heap_.emplace_back(lists_.label(x), x);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

const std::vector<NodeId>& CoreOrder::insert(NodeId u, NodeId v) {
  rising_.clear();
  visited_ = 0;
  if (before(v, u)) std::swap(u, v);
  const NodeId K = level_[u];
  if (++deg_plus_[u] <= K) return rising_;

  // Visit level K in order from u, but only the nodes that gained a
  // candidate neighbor before them: the rest keep deg+ <= K untouched.
  push(u);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const NodeId w = heap_.back().second;
    heap_.pop_back();
    popped_.push_back(w);
    if (deg_star_[w] + deg_plus_[w] <= K) {
      stay(w, K);
      continue;
    }
    state_[w] = kCandidate;
    const std::uint64_t label = lists_.label(w);
    for (const NodeId x : graph_.neighbors(w)) {
      if (level_[x] != K || lists_.label(x) < label) continue;
      ++deg_star_[x];
      if (state_[x] == kIdle) push(x);
    }
  }
  visited_ = popped_.size();

  // The heap is empty, so moving nodes (and any relabel it triggers)
  // can no longer disturb a key. Evicted candidates go after the node
  // that evicted them, in eviction order.
  NodeId anchor = OrderList::kNone;
  NodeId last = OrderList::kNone;
  for (const auto& [after, x] : moves_) {
    lists_.erase(K, x);
    lists_.insert_after(K, after == anchor ? last : after, x);
    anchor = after;
    last = x;
  }
  for (const NodeId w : popped_) {
    if (state_[w] == kCandidate) rising_.push_back(w);
  }
  // V* moves to the head of level K+1 in its old relative order. Their
  // counts were against level K: start over. Everyone else's only gained.
  for (auto it = rising_.rbegin(); it != rising_.rend(); ++it) {
    lists_.erase(K, *it);
    level_[*it] = K + 1;
    count_[*it] = 0;
    lists_.insert_after(K + 1, OrderList::kNone, *it);
  }
  for (const NodeId w : popped_) {
    state_[w] = kIdle;
    deg_star_[w] = 0;
  }
  popped_.clear();
  moves_.clear();
  return rising_;
}

void CoreOrder::stay(NodeId w, NodeId K) {
  // w keeps level K, so its candidates end up after it whether they rise
  // or are evicted: they count toward deg+(w) now, and w no longer
  // counts toward theirs.
  state_[w] = kStayed;
  deg_plus_[w] += deg_star_[w];
  deg_star_[w] = 0;
  evicting_.clear();
  for (const NodeId c : graph_.neighbors(w)) {
    if (state_[c] != kCandidate) continue;
    --deg_plus_[c];
    if (deg_plus_[c] + deg_star_[c] <= K) {
      state_[c] = kEvicting;
      evicting_.push_back(c);
    }
  }
  for (std::size_t i = 0; i < evicting_.size(); ++i) {
    const NodeId c = evicting_[i];
    state_[c] = kStayed;
    deg_plus_[c] += deg_star_[c];
    deg_star_[c] = 0;
    moves_.emplace_back(w, c);
    // c ends up before every queued node and every remaining candidate
    // (which either rises to K+1 or is evicted after c), so it leaves
    // their deg* if it was before them, and their deg+ otherwise.
    const std::uint64_t label = lists_.label(c);
    for (const NodeId y : graph_.neighbors(c)) {
      if (state_[y] == kQueued) {
        --deg_star_[y];
      } else if (state_[y] == kCandidate || state_[y] == kEvicting) {
        if (label < lists_.label(y)) {
          --deg_star_[y];
        } else {
          --deg_plus_[y];
        }
        if (state_[y] == kCandidate && deg_plus_[y] + deg_star_[y] <= K) {
          state_[y] = kEvicting;
          evicting_.push_back(y);
        }
      }
    }
  }
}

const std::vector<NodeId>& CoreOrder::remove(NodeId u, NodeId v) {
  falling_.clear();
  if (before(v, u)) std::swap(u, v);
  const NodeId K = level_[u];
  // v was after u: u loses a later neighbor. v is at or above K, so it
  // counted toward u; u counted toward v only at the same level.
  --deg_plus_[u];
  if (count_[u] > 0) --count_[u];
  if (level_[v] == K && count_[v] > 0) --count_[v];
  if (K > 0) {
    check(u, K);
    if (level_[v] == K) check(v, K);
  }
  // Cascade in queue order. A falling node's count stays exact while it
  // waits: every neighbor that falls before it takes one from it.
  for (std::size_t i = 0; i < falling_.size(); ++i) {
    const NodeId w = falling_[i];
    const std::uint64_t label = lists_.label(w);
    level_[w] = K - 1;  // a recount below no longer counts w
    NodeId support = 0;  // neighbors at or above K-1, exact from here on
    for (const NodeId x : graph_.neighbors(w)) {
      if (level_[x] + 1 >= K) ++support;
      if (level_[x] != K) continue;
      if (count_[x] > 0) --count_[x];  // w no longer counts toward x
      if (state_[x] == kFalling) continue;
      // w lands before every node still at level K: an earlier x loses a
      // later neighbor (a falling x takes its deg+ from its count).
      if (lists_.label(x) < label) --deg_plus_[x];
      check(x, K);
    }
    // The neighbors at K now are exactly those that follow w at the tail
    // of K-1: the ones staying at K and the ones falling after it.
    lists_.erase(K, w);
    deg_plus_[w] = count_[w];
    count_[w] = support;
    lists_.push_back(K - 1, w);
  }
  for (const NodeId x : popped_) state_[x] = kIdle;
  for (const NodeId x : falling_) state_[x] = kIdle;
  visited_ = popped_.size() + falling_.size();
  popped_.clear();
  return falling_;
}

void CoreOrder::check(NodeId x, NodeId K) {
  if (count_[x] >= K) return;
  if (state_[x] != kCounted) {
    NodeId support = 0;
    for (const NodeId y : graph_.neighbors(x)) {
      support += level_[y] >= K ? 1 : 0;
    }
    count_[x] = support;
    state_[x] = kCounted;
    popped_.push_back(x);
    if (support >= K) return;
  }
  state_[x] = kFalling;
  falling_.push_back(x);
}

void CoreOrder::add_node() {
  const NodeId x = lists_.add_element();
  level_.push_back(0);
  deg_plus_.push_back(0);
  count_.push_back(0);
  deg_star_.push_back(0);
  state_.push_back(kIdle);
  lists_.push_back(0, x);
}

}  // namespace kcore::core
