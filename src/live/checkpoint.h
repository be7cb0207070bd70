// Atomic checkpoints of the live service's full state.
//
// A checkpoint is the recovery base: topology + coreness table + the
// epoch they are exact for + the WAL offset replay resumes from. The
// write is crash-atomic by construction — encode, write to
// `checkpoint.tmp`, fsync, rename to `checkpoint-<epoch>.ckpt` — so a
// crash mid-checkpoint leaves at worst a stale temp file and the
// previous checkpoint intact. Loading picks the NEWEST checkpoint whose
// CRC and structure validate, falling back per-file so one corrupt
// checkpoint never blocks recovery while an older good one exists.
//
// File format: u32 magic | u32 crc32(payload) | payload, with payload =
// u64 epoch | u64 wal_offset | u32 num_nodes | u64 num_edges |
// num_edges × (u32 u, u32 v) | num_nodes × (u32 coreness)
// [| num_nodes × (u32 node)], all little-endian. The edge list is
// CANONICAL: u < v, (u, v) strictly increasing (no self-loop, no
// duplicate). The writer encodes into one buffer sized once and fills the
// CRC in place; the loader refuses a list that is not canonical ("edge
// list not in canonical order") even under a valid CRC, so recovery can
// build the adjacency from it in two linear passes (graph::MutableGraph's
// edge-list constructor) without sorting.
//
// The optional trailing section is the k-order the table was kept with
// (core::CoreOrder, level by level): a permutation of the nodes. The
// loader accepts exactly 0 or 4·num_nodes bytes after the table and
// refuses an order that is not a permutation like any other structural
// fault, so recovery falls back to an older checkpoint. Files written
// without the section (older ones, or data with an empty `order`) keep
// their bytes and load with an empty `order`; recovery then checks their
// table with a bucket peel instead of the order's certificate.
//
// Why persisting coreness is sound: the table is EXACT for the
// checkpointed topology, so recovery warm-starts from this table and
// only repairs the WAL tail, never a from-scratch recompute. A CRC only
// proves the bytes are the ones written, so recovery still checks the
// table before serving it (live::RepairEngine::warm_start).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/storage.h"

namespace kcore::live {

/// The state a checkpoint round-trips.
struct CheckpointData {
  std::uint64_t epoch = 0;       // last epoch published before the write
  std::uint64_t wal_offset = 0;  // durable WAL end at checkpoint time
  graph::NodeId num_nodes = 0;
  std::vector<graph::Edge> edges;        // canonical: u < v, strictly sorted
  std::vector<graph::NodeId> coreness;   // exact for this topology
  /// A k-order for `coreness` (every node once, levels non-decreasing),
  /// or empty: then no order section is written.
  std::vector<graph::NodeId> order;
};

/// Outcome of scanning a state directory for checkpoints.
struct CheckpointLoadResult {
  std::optional<CheckpointData> data;
  std::string file;  // the checkpoint that loaded (empty if none)
  /// One line per checkpoint file that existed but failed validation —
  /// surfaced in recovery diagnostics so silent corruption is visible.
  std::vector<std::string> rejected;
};

/// Write `data` atomically into `dir`, pruning all but the newest `keep`
/// checkpoints afterwards. Returns the final file path.
std::string write_checkpoint(util::Storage& storage, const std::string& dir,
                             const CheckpointData& data, unsigned keep);

/// Load the newest valid checkpoint in `dir` (empty result when the
/// directory holds none).
CheckpointLoadResult load_latest_checkpoint(util::Storage& storage,
                                            const std::string& dir);

}  // namespace kcore::live
