#include "graph/generators.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "graph/stats.h"
#include "util/rng.h"

namespace kcore::graph::gen {

using util::Xoshiro256;

namespace {

/// Pack an undirected pair into a 64-bit key with canonical order.
std::uint64_t edge_key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Deterministic families
// ---------------------------------------------------------------------------

Graph chain(NodeId n) {
  KCORE_CHECK_MSG(n >= 1, "chain needs >= 1 node");
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return b.build();
}

Graph cycle(NodeId n) {
  KCORE_CHECK_MSG(n >= 3, "cycle needs >= 3 nodes");
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n);
  return b.build();
}

Graph clique(NodeId n) {
  KCORE_CHECK_MSG(n >= 1, "clique needs >= 1 node");
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) b.add_edge(i, j);
  }
  return b.build();
}

Graph star(NodeId n) {
  KCORE_CHECK_MSG(n >= 2, "star needs >= 2 nodes");
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i) b.add_edge(0, i);
  return b.build();
}

Graph complete_bipartite(NodeId a, NodeId b_count) {
  KCORE_CHECK_MSG(a >= 1 && b_count >= 1, "both sides must be non-empty");
  GraphBuilder b(a + b_count);
  for (NodeId i = 0; i < a; ++i) {
    for (NodeId j = 0; j < b_count; ++j) b.add_edge(i, a + j);
  }
  return b.build();
}

Graph grid(NodeId rows, NodeId cols) {
  KCORE_CHECK_MSG(rows >= 1 && cols >= 1, "grid needs positive dimensions");
  GraphBuilder b(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return b.build();
}

Graph circulant(NodeId n, std::span<const NodeId> offsets) {
  KCORE_CHECK_MSG(n >= 3, "circulant needs >= 3 nodes");
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId o : offsets) {
      KCORE_CHECK_MSG(o >= 1 && o < n, "offset " << o << " out of range");
      b.add_edge(i, (i + o) % n);
    }
  }
  return b.build();
}

Graph ring_lattice(NodeId n, NodeId degree) {
  KCORE_CHECK_MSG(degree % 2 == 0, "ring_lattice degree must be even");
  KCORE_CHECK_MSG(degree < n, "degree must be < n");
  std::vector<NodeId> offsets(degree / 2);
  std::iota(offsets.begin(), offsets.end(), 1U);
  return circulant(n, offsets);
}

Graph disjoint_cliques(std::span<const NodeId> sizes) {
  NodeId total = 0;
  for (NodeId s : sizes) {
    KCORE_CHECK_MSG(s >= 1, "clique size must be >= 1");
    total += s;
  }
  GraphBuilder b(total);
  NodeId base = 0;
  for (NodeId s : sizes) {
    for (NodeId i = 0; i < s; ++i) {
      for (NodeId j = i + 1; j < s; ++j) b.add_edge(base + i, base + j);
    }
    base += s;
  }
  return b.build();
}

Graph montresor_worst_case(NodeId n) {
  KCORE_CHECK_MSG(n >= 5, "worst-case construction requires n >= 5");
  // Work in the paper's 1-based numbering, subtract 1 when emitting.
  GraphBuilder b(n);
  auto add = [&b](NodeId u1, NodeId v1) { b.add_edge(u1 - 1, v1 - 1); };
  // Node n is adjacent to every node except n-3.
  for (NodeId i = 1; i <= n - 1; ++i) {
    if (i != n - 3) add(n, i);
  }
  // Path 1-2-...-(n-1): node i adjacent to i+1 for i = 1..n-2.
  for (NodeId i = 1; i <= n - 2; ++i) add(i, i + 1);
  // Extra chord.
  add(n - 3, n - 1);
  return b.build();
}

// ---------------------------------------------------------------------------
// Random families
// ---------------------------------------------------------------------------

Graph erdos_renyi_gnm(NodeId n, std::uint64_t m, std::uint64_t seed) {
  KCORE_CHECK_MSG(n >= 2, "G(n,m) needs >= 2 nodes");
  const std::uint64_t max_edges =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  KCORE_CHECK_MSG(m <= max_edges,
                  "m=" << m << " exceeds max " << max_edges);
  Xoshiro256 rng(seed);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(m * 2);
  GraphBuilder b(n);
  b.reserve(m);
  while (seen.size() < m) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (u == v) continue;
    if (seen.insert(edge_key(u, v)).second) b.add_edge(u, v);
  }
  return b.build();
}

Graph barabasi_albert(NodeId n, NodeId edges_per_node, std::uint64_t seed) {
  KCORE_CHECK_MSG(edges_per_node >= 1, "need >= 1 edge per node");
  KCORE_CHECK_MSG(n > edges_per_node, "n must exceed edges_per_node");
  Xoshiro256 rng(seed);
  GraphBuilder b(n);
  // Seed graph: clique on edges_per_node + 1 nodes.
  const NodeId seed_nodes = edges_per_node + 1;
  std::vector<NodeId> endpoint_pool;  // one entry per arc endpoint
  endpoint_pool.reserve(static_cast<std::size_t>(n) * edges_per_node * 2);
  for (NodeId i = 0; i < seed_nodes; ++i) {
    for (NodeId j = i + 1; j < seed_nodes; ++j) {
      b.add_edge(i, j);
      endpoint_pool.push_back(i);
      endpoint_pool.push_back(j);
    }
  }
  std::vector<NodeId> targets;
  targets.reserve(edges_per_node);
  for (NodeId u = seed_nodes; u < n; ++u) {
    targets.clear();
    // Choose edges_per_node distinct targets proportional to degree.
    while (targets.size() < edges_per_node) {
      const NodeId cand =
          endpoint_pool[rng.next_below(endpoint_pool.size())];
      if (std::find(targets.begin(), targets.end(), cand) == targets.end()) {
        targets.push_back(cand);
      }
    }
    for (NodeId v : targets) {
      b.add_edge(u, v);
      endpoint_pool.push_back(u);
      endpoint_pool.push_back(v);
    }
  }
  return b.build();
}

Graph rmat(const RmatParams& p, std::uint64_t seed) {
  KCORE_CHECK_MSG(p.scale >= 1 && p.scale <= 30,
                  "scale must be in [1, 30], got " << p.scale);
  const double prob_sum = p.a + p.b + p.c + p.d;
  KCORE_CHECK_MSG(prob_sum > 0.99 && prob_sum < 1.01,
                  "quadrant probabilities must sum to 1, got " << prob_sum);
  const NodeId n = NodeId{1} << p.scale;
  // The edge count must be a finite value std::uint64_t holds, or the
  // cast below is undefined; NaN fails the comparison too.
  const double edges = p.edge_factor * static_cast<double>(n);
  KCORE_CHECK_MSG(p.edge_factor >= 0.0 && edges < 0x1p64,
                  "edge_factor must be finite and >= 0 with edge_factor * "
                  "2^scale < 2^64, got "
                      << p.edge_factor);
  const auto m = static_cast<std::uint64_t>(edges);
  Xoshiro256 rng(seed);
  GraphBuilder b(n);
  b.reserve(m);
  for (std::uint64_t e = 0; e < m; ++e) {
    NodeId u = 0;
    NodeId v = 0;
    for (std::uint32_t bit = 0; bit < p.scale; ++bit) {
      const double r = rng.next_double();
      u <<= 1;
      v <<= 1;
      if (r < p.a) {
        // top-left: no bits set
      } else if (r < p.a + p.b) {
        v |= 1;
      } else if (r < p.a + p.b + p.c) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u != v) b.add_edge(u, v);
  }
  // Relabel so node id carries no quadrant structure.
  return relabel_random(b.build(), seed ^ 0x5bd1e995ULL);
}

Graph watts_strogatz(NodeId n, NodeId k, double beta, std::uint64_t seed) {
  KCORE_CHECK_MSG(k % 2 == 0 && k >= 2, "k must be even and >= 2");
  KCORE_CHECK_MSG(k < n, "k must be < n");
  KCORE_CHECK_MSG(beta >= 0.0 && beta <= 1.0, "beta in [0,1]");
  Xoshiro256 rng(seed);
  // Start from ring lattice edge set, rewire the far endpoint w.p. beta.
  std::unordered_set<std::uint64_t> present;
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (k / 2));
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId o = 1; o <= k / 2; ++o) {
      const NodeId j = (i + o) % n;
      edges.push_back({i, j});
      present.insert(edge_key(i, j));
    }
  }
  for (auto& e : edges) {
    if (!rng.next_bool(beta)) continue;
    // Rewire e.v to a uniform non-neighbor, keeping e.u fixed.
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto cand = static_cast<NodeId>(rng.next_below(n));
      if (cand == e.u) continue;
      if (present.contains(edge_key(e.u, cand))) continue;
      present.erase(edge_key(e.u, e.v));
      present.insert(edge_key(e.u, cand));
      e.v = cand;
      break;
    }
  }
  GraphBuilder b(n);
  for (const auto& e : edges) b.add_edge(e.u, e.v);
  return b.build();
}

Graph random_regular(NodeId n, NodeId d, std::uint64_t seed) {
  KCORE_CHECK_MSG(d >= 1 && d < n, "need 1 <= d < n");
  KCORE_CHECK_MSG((static_cast<std::uint64_t>(n) * d) % 2 == 0,
                  "n*d must be even");
  Xoshiro256 rng(seed);
  const std::size_t stubs_count = static_cast<std::size_t>(n) * d;
  std::vector<NodeId> stubs(stubs_count);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId i = 0; i < d; ++i) {
      stubs[static_cast<std::size_t>(u) * d + i] = u;
    }
  }
  // Configuration model with local repair: pair shuffled stubs, then fix
  // self-loops/duplicates by double-edge swaps ((a,b),(c,e) -> (a,c),(b,e))
  // against randomly chosen partner pairs. A plain restart strategy fails
  // with overwhelming probability beyond d ~ 5; repair converges fast for
  // any modest d.
  util::shuffle(stubs, rng);
  const std::size_t num_pairs = stubs_count / 2;
  auto pair_u = [&](std::size_t p) -> NodeId& { return stubs[2 * p]; };
  auto pair_v = [&](std::size_t p) -> NodeId& { return stubs[2 * p + 1]; };

  std::unordered_set<std::uint64_t> seen;
  std::vector<std::size_t> bad;      // conflicting pairs awaiting repair
  std::vector<bool> is_bad(num_pairs, false);
  seen.reserve(num_pairs * 2);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    if (pair_u(p) == pair_v(p) ||
        !seen.insert(edge_key(pair_u(p), pair_v(p))).second) {
      bad.push_back(p);
      is_bad[p] = true;
    }
  }
  std::uint64_t attempts = 0;
  const std::uint64_t max_attempts = 200 * stubs_count + 1000;
  while (!bad.empty() && attempts < max_attempts) {
    ++attempts;
    const std::size_t p = bad.back();
    const std::size_t q = rng.next_below(num_pairs);
    // Swap only against a currently-good partner pair: its edge is in
    // `seen` and owned by it alone, so the bookkeeping stays exact.
    if (p == q || is_bad[q]) continue;
    const NodeId a = pair_u(p);
    const NodeId b = pair_v(p);
    const NodeId c = pair_u(q);
    const NodeId e = pair_v(q);
    // New edges (a,e) and (c,b) must be simple and fresh.
    if (a == e || c == b) continue;
    if (seen.contains(edge_key(a, e)) || seen.contains(edge_key(c, b))) {
      continue;
    }
    seen.erase(edge_key(c, e));
    pair_v(p) = e;
    pair_v(q) = b;
    seen.insert(edge_key(a, e));
    seen.insert(edge_key(c, b));
    is_bad[p] = false;
    bad.pop_back();
  }
  KCORE_CHECK_MSG(bad.empty(),
                  "random_regular(" << n << "," << d
                                    << ") failed to repair pairing");
  GraphBuilder builder(n);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    builder.add_edge(pair_u(p), pair_v(p));
  }
  return builder.build();
}

Graph affiliation(NodeId n, NodeId num_groups, NodeId memberships,
                  std::uint64_t seed) {
  KCORE_CHECK_MSG(n >= 1 && num_groups >= 1 && memberships >= 1,
                  "affiliation parameters must be positive");
  Xoshiro256 rng(seed);
  std::vector<std::vector<NodeId>> group_members(num_groups);
  for (NodeId u = 0; u < n; ++u) {
    // Join `memberships` distinct groups.
    const auto k = std::min<std::size_t>(memberships, num_groups);
    auto groups = util::sample_without_replacement(num_groups, k, rng);
    for (NodeId g : groups) group_members[g].push_back(u);
  }
  GraphBuilder b(n);
  for (const auto& members : group_members) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        b.add_edge(members[i], members[j]);
      }
    }
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// Composite operations
// ---------------------------------------------------------------------------

Graph disjoint_union(std::span<const Graph> parts) {
  NodeId total = 0;
  for (const Graph& g : parts) total += g.num_nodes();
  GraphBuilder b(total);
  NodeId base = 0;
  for (const Graph& g : parts) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v : g.neighbors(u)) {
        if (u < v) b.add_edge(base + u, base + v);
      }
    }
    base += g.num_nodes();
  }
  return b.build();
}

Graph add_random_edges(const Graph& g, std::uint64_t count,
                       std::uint64_t seed) {
  Xoshiro256 rng(seed);
  GraphBuilder b(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) b.add_edge(u, v);
    }
  }
  const NodeId n = g.num_nodes();
  std::uint64_t added = 0;
  std::uint64_t attempts = 0;
  while (added < count && attempts < count * 20 + 100) {
    ++attempts;
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (u == v || g.has_edge(u, v)) continue;
    b.add_edge(u, v);
    ++added;
  }
  return b.build();
}

Graph remove_random_edges(const Graph& g, std::uint64_t count,
                          std::uint64_t seed) {
  // Collect the undirected edge list, drop a random sample of it.
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }
  KCORE_CHECK_MSG(count <= edges.size(),
                  "cannot remove " << count << " of " << edges.size()
                                   << " edges");
  Xoshiro256 rng(seed);
  util::shuffle(edges, rng);
  edges.resize(edges.size() - count);
  GraphBuilder b(g.num_nodes());
  for (const Edge& e : edges) b.add_edge(e.u, e.v);
  return b.build();
}

Graph attach_paths(const Graph& g, NodeId num_paths, NodeId path_len,
                   std::uint64_t seed) {
  KCORE_CHECK_MSG(path_len >= 1, "path_len must be >= 1");
  KCORE_CHECK_MSG(g.num_nodes() >= 1, "cannot attach to empty graph");
  Xoshiro256 rng(seed);
  const NodeId base = g.num_nodes();
  GraphBuilder b(base + num_paths * path_len);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) b.add_edge(u, v);
    }
  }
  for (NodeId p = 0; p < num_paths; ++p) {
    const auto anchor = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    NodeId prev = anchor;
    for (NodeId i = 0; i < path_len; ++i) {
      const NodeId fresh = base + p * path_len + i;
      b.add_edge(prev, fresh);
      prev = fresh;
    }
  }
  return b.build();
}

Graph plant_dense_core(const Graph& g, NodeId core_size, NodeId core_degree,
                       std::uint64_t seed) {
  KCORE_CHECK_MSG(core_size <= g.num_nodes(),
                  "core_size exceeds graph size");
  KCORE_CHECK_MSG(core_degree % 2 == 0 && core_degree < core_size,
                  "core_degree must be even and < core_size");
  Xoshiro256 rng(seed);
  const auto members =
      util::sample_without_replacement(g.num_nodes(), core_size, rng);
  GraphBuilder b(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) b.add_edge(u, v);
    }
  }
  for (NodeId i = 0; i < core_size; ++i) {
    for (NodeId o = 1; o <= core_degree / 2; ++o) {
      b.add_edge(members[i], members[(i + o) % core_size]);
    }
  }
  return b.build();
}

Graph relabel_random(const Graph& g, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto perm = util::random_permutation(g.num_nodes(), rng);
  GraphBuilder b(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) b.add_edge(perm[u], perm[v]);
    }
  }
  return b.build();
}

Graph connect_components(const Graph& g, std::uint64_t seed) {
  const auto comps = connected_components(g);
  if (comps.num_components <= 1) return g;
  Xoshiro256 rng(seed);
  // Pick one representative per component, bridge everything to comp 0.
  std::vector<std::vector<NodeId>> members(comps.num_components);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    members[comps.component_of[u]].push_back(u);
  }
  GraphBuilder b(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) b.add_edge(u, v);
    }
  }
  for (std::size_t c = 1; c < members.size(); ++c) {
    const NodeId a = members[0][rng.next_below(members[0].size())];
    const NodeId z = members[c][rng.next_below(members[c].size())];
    b.add_edge(a, z);
  }
  return b.build();
}

}  // namespace kcore::graph::gen
