// Plain-text edge-list and edge-stream input/output (SNAP-compatible).
//
// Static format: one "u v" pair per line, whitespace-separated; lines
// starting with '#' or '%' are comments. Node ids in files may be
// arbitrary non-negative integers — they are remapped to a dense [0, n)
// range on load (SNAP files routinely have gaps).
//
// Stream format (timestamped churn, consumed by core/dynamic and
// src/live): one "t op u v" event per line, with t a non-decreasing
// integer timestamp, op '+' (insert) or '-' (remove), and u/v DENSE node
// ids into an already-loaded base graph. Same comment rules.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace kcore::graph {

/// Result of loading an edge list: the canonical graph plus the mapping
/// from dense ids back to the original file ids.
struct LoadedGraph {
  Graph graph;
  std::vector<std::uint64_t> original_ids;  // original_ids[dense] = file id
};

/// Parse an edge list from a stream. Throws util::IoError on malformed
/// lines (a half-read graph would silently corrupt an experiment), with
/// the offending line number and `source` (a file name, for the file
/// wrappers) in the message.
[[nodiscard]] LoadedGraph read_edge_list(std::istream& in,
                                         const std::string& source = "input");

/// Convenience file wrapper around read_edge_list(std::istream&).
[[nodiscard]] LoadedGraph read_edge_list_file(const std::string& path);

/// Write a graph as "u v" lines, one per undirected edge (u < v), with a
/// comment header carrying node/edge counts.
void write_edge_list(std::ostream& out, const Graph& g);

/// Convenience file wrapper around write_edge_list(std::ostream&).
void write_edge_list_file(const std::string& path, const Graph& g);

// --- timestamped edge streams ----------------------------------------------

enum class EdgeOp : std::uint8_t {
  kInsert,  // '+'
  kRemove,  // '-'
};

/// One churn event. The SAME type, reduced by the same coalesce(), drives
/// the synchronous maintenance protocol (core::DynamicKCore::apply_batch)
/// and the async live service (live::Service::apply), so both paths
/// replay identical streams to identical topologies.
struct EdgeUpdate {
  EdgeOp op = EdgeOp::kInsert;
  NodeId u = 0;
  NodeId v = 0;
  friend bool operator==(const EdgeUpdate&, const EdgeUpdate&) = default;
};

/// An EdgeUpdate with its arrival timestamp (arbitrary integer ticks).
struct TimedEdgeUpdate {
  std::uint64_t time = 0;
  EdgeUpdate update;
  friend bool operator==(const TimedEdgeUpdate&,
                         const TimedEdgeUpdate&) = default;
};

/// A parsed stream: events in file order, timestamps non-decreasing.
struct EdgeStream {
  std::vector<TimedEdgeUpdate> events;
};

/// Consecutive events grouped into one apply unit: all events with
/// timestamp in [t_begin, t_end). t_end saturates at UINT64_MAX, and the
/// batch it ends also holds the events stamped UINT64_MAX. The batch
/// type of the live service's replay and of `kcore stream`.
struct EdgeUpdateBatch {
  std::uint64_t t_begin = 0;
  std::uint64_t t_end = 0;
  std::vector<EdgeUpdate> updates;
};

/// Parse a "t op u v" stream. Throws util::IoError (with `source` and
/// the line number) on malformed lines, unknown ops, or a timestamp that
/// goes backwards — a half-read stream would silently corrupt a replay.
[[nodiscard]] EdgeStream read_edge_stream(std::istream& in,
                                          const std::string& source = "input");

/// Convenience file wrapper around read_edge_stream(std::istream&).
[[nodiscard]] EdgeStream read_edge_stream_file(const std::string& path);

/// Write a stream as "t op u v" lines with a comment header; the output
/// round-trips through read_edge_stream.
void write_edge_stream(std::ostream& out, const EdgeStream& stream);

/// Convenience file wrapper around write_edge_stream(std::ostream&).
void write_edge_stream_file(const std::string& path, const EdgeStream& stream);

/// A batch's net topology effect (see coalesce()).
struct NetUpdates {
  std::vector<Edge> inserts;   // absent edges to add, u < v, sorted by (u,v)
  std::vector<Edge> removes;   // present edges to drop, u < v, sorted by (u,v)
  std::uint64_t rejected = 0;  // updates naming a node id >= num_nodes
  std::uint64_t ignored = 0;   // self-loops and updates with no net effect
};

/// Reduce a batch to its net effect on a topology of `num_nodes` nodes
/// whose current edges `has_edge(u, v)` reports (asked with u < v only).
/// The LAST op per edge decides its final presence; an edge whose final
/// presence matches the topology drops out, so duplicate inserts, absent
/// removes and transient insert+remove churn cost nothing (transient
/// edges cannot change the final coreness). Every update is counted
/// exactly once: rejected + ignored + inserts + removes == batch size.
[[nodiscard]] NetUpdates coalesce(
    std::span<const EdgeUpdate> batch, NodeId num_nodes,
    const std::function<bool(NodeId, NodeId)>& has_edge);

/// Group a stream into batches of `window` ticks anchored at the first
/// event's timestamp; window 0 means one batch per distinct timestamp.
/// Empty windows produce no batch.
[[nodiscard]] std::vector<EdgeUpdateBatch> batch_by_window(
    const EdgeStream& stream, std::uint64_t window);

}  // namespace kcore::graph
