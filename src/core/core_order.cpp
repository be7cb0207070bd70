#include "core/core_order.h"

#include <algorithm>
#include <functional>

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
  level_.assign(n, 0);
  deg_plus_.assign(n, 0);
  deg_star_.assign(n, 0);
  state_.assign(n, kIdle);
  unsettled_ = false;

  // Batagelj–Zaversnik bucket peel. level_ holds the bucket key (the
  // coreness once removed); deg_plus_ counts the neighbors not removed
  // yet, which is exactly deg+ at removal.
  NodeId max_degree = 0;
  for (NodeId v = 0; v < n; ++v) {
    level_[v] = deg_plus_[v] = graph_.degree(v);
    max_degree = std::max(max_degree, level_[v]);
  }
  std::vector<NodeId> start(static_cast<std::size_t>(max_degree) + 1, 0);
  std::vector<NodeId> pos(n);
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) ++start[level_[v]];
  NodeId sum = 0;
  for (NodeId& s : start) {
    const NodeId count = s;
    s = sum;
    sum += count;
  }
  for (NodeId v = 0; v < n; ++v) {
    pos[v] = start[level_[v]]++;
    order[pos[v]] = v;
  }
  for (NodeId d = max_degree; d > 0; --d) start[d] = start[d - 1];
  start[0] = 0;
  for (NodeId i = 0; i < n; ++i) {
    const NodeId v = order[i];
    for (const NodeId u : graph_.neighbors(v)) {
      if (pos[u] < i) continue;  // removed already
      --deg_plus_[u];
      if (level_[u] > level_[v]) {
        // Move u to the front of its bucket, then shrink its key.
        const NodeId du = level_[u];
        const NodeId pu = pos[u];
        const NodeId pw = start[du];
        const NodeId w = order[pw];
        order[pu] = w;
        pos[w] = pu;
        order[pw] = u;
        pos[u] = pw;
        ++start[du];
        --level_[u];
      }
    }
  }
  lists_.reset(n);
  for (const NodeId v : order) lists_.push_back(level_[v], v);
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
  // V* moves to the head of level K+1 in its old relative order.
  for (auto it = rising_.rbegin(); it != rising_.rend(); ++it) {
    lists_.erase(K, *it);
    level_[*it] = K + 1;
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

void CoreOrder::note_remove(NodeId u, NodeId v) {
  if (before(v, u)) std::swap(u, v);
  --deg_plus_[u];
  unsettled_ = true;
}

void CoreOrder::place_dropped() {
  // deg_star_ (zero outside insert()) holds each dropped node's new level.
  for (const auto& [x, k] : dropped_) {
    state_[x] = kDropped;
    deg_star_[x] = k;
  }
  // One pass over the dropped nodes' neighbors, against the old order:
  //  * a kept neighbor y above the new level k loses a later neighbor if
  //    x was after it (x now lands below it). A dropped node never lands
  //    before a kept node of its new level: it joins that level's tail;
  //  * x's support is the number of neighbors that will follow it: kept
  //    ones above k, and dropped ones at or above k (those at k are all
  //    unplaced yet).
  for (const auto& [x, k] : dropped_) {
    NodeId support = 0;
    for (const NodeId y : graph_.neighbors(x)) {
      if (state_[y] == kDropped) {
        if (deg_star_[y] >= k) ++support;
      } else if (level_[y] > k) {
        ++support;
        if (before(y, x)) --deg_plus_[y];
      }
    }
    deg_plus_[x] = support;
  }
  std::vector<NodeId>& ready = evicting_;
  ready.clear();
  for (const auto& [x, k] : dropped_) {
    lists_.erase(level_[x], x);
    level_[x] = k;
    deg_star_[x] = 0;
    if (deg_plus_[x] <= k) ready.push_back(x);
  }
  // Support peel: a dropped node joins its level's tail once at most
  // `level` of its neighbors will follow it; its support is then its
  // deg+. Placing it takes one follower from its unplaced peers.
  for (std::size_t i = 0; i < ready.size(); ++i) {
    const NodeId x = ready[i];
    const NodeId k = level_[x];
    state_[x] = kIdle;
    lists_.push_back(k, x);
    for (const NodeId y : graph_.neighbors(x)) {
      if (state_[y] == kDropped && level_[y] == k && --deg_plus_[y] == k) {
        ready.push_back(y);
      }
    }
  }
  KCORE_CHECK_MSG(ready.size() == dropped_.size(),
                  "settle: " << dropped_.size() - ready.size() << " of "
                             << dropped_.size()
                             << " dropped nodes have no valid place (levels "
                                "are not the coreness)");
}

void CoreOrder::add_node() {
  const NodeId x = lists_.add_element();
  level_.push_back(0);
  deg_plus_.push_back(0);
  deg_star_.push_back(0);
  state_.push_back(kIdle);
  lists_.push_back(0, x);
}

}  // namespace kcore::core
