// Graph generators.
//
// Two groups:
//  * deterministic families with analytically known k-core structure,
//    used as ground truth in tests (cliques, circulants, complete
//    bipartite, grids, chains) plus the paper's §4.2 worst-case graph;
//  * random families (Erdős–Rényi, Barabási–Albert, R-MAT,
//    Watts–Strogatz, random-regular) and composite operations used by
//    src/eval to synthesize stand-ins for the paper's SNAP datasets.
//
// All random generators are pure functions of their parameters and seed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace kcore::graph::gen {

// ---------------------------------------------------------------------------
// Deterministic families
// ---------------------------------------------------------------------------

/// Path 0-1-...-(n-1). Coreness 1 everywhere (n >= 2).
[[nodiscard]] Graph chain(NodeId n);

/// Cycle on n >= 3 nodes. Coreness 2 everywhere.
[[nodiscard]] Graph cycle(NodeId n);

/// Complete graph K_n. Coreness n-1 everywhere.
[[nodiscard]] Graph clique(NodeId n);

/// Star with one hub and n-1 leaves. Coreness 1 everywhere (n >= 2).
[[nodiscard]] Graph star(NodeId n);

/// Complete bipartite K_{a,b}. Coreness min(a,b) everywhere.
[[nodiscard]] Graph complete_bipartite(NodeId a, NodeId b);

/// rows x cols 4-neighbor lattice. Coreness 2 everywhere for rows,cols >= 2.
[[nodiscard]] Graph grid(NodeId rows, NodeId cols);

/// Circulant graph: i ~ i +/- o (mod n) for each offset o. With offsets
/// 1..d/2 this is the canonical d-regular graph: coreness d everywhere.
[[nodiscard]] Graph circulant(NodeId n, std::span<const NodeId> offsets);

/// Convenience: circulant with offsets 1..degree/2 (degree must be even,
/// degree < n). Exactly degree-regular.
[[nodiscard]] Graph ring_lattice(NodeId n, NodeId degree);

/// Disjoint cliques of the given sizes; node ids are assigned consecutively
/// per clique. Coreness of a node in a clique of size s is s-1. This is the
/// simplest construction with fully known, heterogeneous coreness.
[[nodiscard]] Graph disjoint_cliques(std::span<const NodeId> sizes);

/// The worst-case graph of §4.2 / Figure 3 (n >= 5): a polygon with node n
/// as hub. Under synchronous delivery the one-to-one algorithm needs
/// exactly n-1 rounds, while the diameter stays 3.
///
/// Construction (paper's 1-based numbering): node N adjacent to all nodes
/// except N-3; node i adjacent to i+1 for i = 1..N-2; node N-3 adjacent to
/// N-1. Coreness is 2 everywhere except node 1 (coreness 1)... computed by
/// the baseline in tests rather than asserted here.
[[nodiscard]] Graph montresor_worst_case(NodeId n);

// ---------------------------------------------------------------------------
// Random families
// ---------------------------------------------------------------------------

/// G(n, m): exactly m distinct edges chosen uniformly among all pairs
/// (self-loops excluded). Requires m <= n*(n-1)/2.
[[nodiscard]] Graph erdos_renyi_gnm(NodeId n, std::uint64_t m,
                                    std::uint64_t seed);

/// Barabási–Albert preferential attachment: start from a clique on
/// edges_per_node+1 nodes; each arriving node attaches to edges_per_node
/// distinct existing nodes chosen proportionally to degree.
[[nodiscard]] Graph barabasi_albert(NodeId n, NodeId edges_per_node,
                                    std::uint64_t seed);

/// R-MAT recursive-quadrant generator over n = 2^scale nodes with the
/// given quadrant probabilities (a+b+c+d must sum to ~1). Produces the
/// skewed, hub-dominated degree profile typical of web graphs. Node ids
/// are randomly relabeled so id order carries no structure.
struct RmatParams {
  std::uint32_t scale = 16;     // n = 2^scale, scale in [1, 30]
  double edge_factor = 8.0;     // m = edge_factor * n, >= 0, m < 2^64
  double a = 0.57, b = 0.19, c = 0.19, d = 0.05;
};
[[nodiscard]] Graph rmat(const RmatParams& params, std::uint64_t seed);

/// Watts–Strogatz small world: ring lattice of even degree k, each edge
/// rewired with probability beta.
[[nodiscard]] Graph watts_strogatz(NodeId n, NodeId k, double beta,
                                   std::uint64_t seed);

/// Random d-regular graph via the configuration model with double-edge-
/// swap repair of self-loops/duplicates (n*d must be even; d < n).
/// The result is exactly d-regular; throws if repair cannot converge
/// (only possible for adversarially dense parameters).
[[nodiscard]] Graph random_regular(NodeId n, NodeId d, std::uint64_t seed);

/// Affiliation (overlapping-groups) model for collaboration networks:
/// each of n nodes joins `memberships` of the `num_groups` groups chosen
/// uniformly; every group becomes a clique. Mirrors co-authorship
/// structure (CA-AstroPh / CA-CondMat): dense overlapping cliques and a
/// heavy clustering coefficient.
[[nodiscard]] Graph affiliation(NodeId n, NodeId num_groups,
                                NodeId memberships, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Composite operations
// ---------------------------------------------------------------------------

/// Disjoint union; node ids of parts[i] are shifted past parts[0..i-1].
[[nodiscard]] Graph disjoint_union(std::span<const Graph> parts);

/// Add `count` extra uniformly random edges (duplicates ignored).
[[nodiscard]] Graph add_random_edges(const Graph& g, std::uint64_t count,
                                     std::uint64_t seed);

/// Delete `count` uniformly random edges (without isolating the graph on
/// purpose — components may split; callers wanting connectivity should
/// follow with connect_components). Used to roughen regular structures,
/// e.g. turning a grid into a road-network-like partial mesh.
[[nodiscard]] Graph remove_random_edges(const Graph& g, std::uint64_t count,
                                        std::uint64_t seed);

/// Attach `num_paths` fresh paths of `path_len` new nodes each; every path
/// is anchored at a uniformly random existing node. Models the long
/// "tendrils" that give web crawls their extreme diameter.
[[nodiscard]] Graph attach_paths(const Graph& g, NodeId num_paths,
                                 NodeId path_len, std::uint64_t seed);

/// Overlay a ring_lattice(core_degree) on `core_size` randomly chosen
/// nodes, planting a (core_degree)-core among them. Used to push kmax of a
/// synthetic dataset toward its paper counterpart.
[[nodiscard]] Graph plant_dense_core(const Graph& g, NodeId core_size,
                                     NodeId core_degree, std::uint64_t seed);

/// Randomly relabel node ids (useful to destroy generator artifacts that
/// correlate id order with structure).
[[nodiscard]] Graph relabel_random(const Graph& g, std::uint64_t seed);

/// Connect all components by adding one edge between a random node of each
/// non-first component and a random node of the first.
[[nodiscard]] Graph connect_components(const Graph& g, std::uint64_t seed);

}  // namespace kcore::graph::gen
