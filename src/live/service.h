// live::Service — the live graph service: streaming edge churn with
// incremental repair by k-order, consistent-snapshot queries, and
// (opt-in) crash-safe durability. The repair runs on the writer thread,
// edge by edge (live/repair.h); the service starts no thread of its own.
//
// Consistency contract:
//  * One writer thread calls apply(); any number of reader threads call
//    query() concurrently with it and with each other.
//  * query() returns the last PUBLISHED snapshot: an immutable coreness
//    table + topology version. A FINAL snapshot (provisional == false)
//    is exact for its topology. When a provisional deadline is set, a
//    long apply additionally publishes PROVISIONAL snapshots between its
//    removals: same (pending) epoch number, topology version and edge
//    count as the final snapshot of that epoch, provisional == true, and
//    a coreness table that is a sound UPPER BOUND. After the batch's
//    insertions, and after each of its removals, the table is exact for
//    a supergraph of the pending topology, and coreness only grows with
//    the graph. The exact publish of the same epoch lands last. Readers
//    that need exactness skip provisional snapshots; readers that need
//    freshness use them.
//  * Every apply() publishes exactly ONE new final epoch (even for an
//    empty or fully-ignored batch), so epoch numbers count apply()
//    calls and the `live.epoch_publishes` counter equals applies + 1
//    (the constructor publishes epoch 0). A recovered service
//    counts from its own start: the checkpointed epoch, plus one publish
//    for the whole replayed tail.
//
// Durability contract (when DurabilityOptions::dir is set):
//  * WRITE-AHEAD: apply() appends the raw batch to `dir`/wal.log
//    (CRC-framed, fsync per FsyncPolicy) BEFORE touching the topology.
//    A crash at any point loses at most the unsynced WAL suffix; an
//    acknowledged apply under FsyncPolicy::kEveryBatch is never lost.
//  * CHECKPOINTS: every checkpoint_every batches the full state
//    (topology + exact coreness + epoch + WAL offset) is written
//    atomically (temp -> fsync -> rename); the WAL is synced first so a
//    checkpoint never references bytes the disk does not have.
//  * RECOVERY: Service::open() loads the newest valid checkpoint,
//    warm-starts the repair engine from its coreness table (the
//    checkpointed k-order's O(n + m) certificate checks the table, or a
//    bucket peel when the file has no order section, and a table that
//    fails the check is refused with util::IoError naming the checkpoint
//    file, the node and the check), reads wal.log once and validates
//    every record in one pass (Wal::scan: CRC and framing checked from offset
//    0, only the records past the checkpoint's epoch decoded), truncates
//    any torn WAL tail, and replays the decoded tail through the normal
//    apply() path as ONE batch: the concatenated records coalesce to
//    their net effect, so recovery pays one repair for the net change,
//    not one per record, and publishes the last tail epoch directly.
//    Replay is idempotent by epoch: duplicate records are skipped, a
//    gap is refused with an actionable error.
//  * A failed checkpoint write degrades gracefully: the error is
//    counted (live.checkpoint_failures), the result flags it, and the
//    WAL still carries the data; a failed WAL append propagates as
//    util::IoError BEFORE any mutation, leaving the service consistent.
//
// Update semantics per batch (graph::coalesce, the one coalescer
// DynamicKCore::apply_batch uses too, so the simulator and async paths
// replay identical streams):
//  * out-of-range node ids are REJECTED (counted, not applied — a live
//    feed's garbage must not take the service down);
//  * self-loops, duplicate inserts, absent removes and insert+remove
//    churn within one batch are IGNORED (only the net effect is applied);
//  * net insertions are applied before net deletions, each insertion
//    raising its rising set and each deletion lowering its falling set,
//    both found by the k-order (core::CoreOrder; see live/repair.h), so
//    the table is exact after every edge.
//
// Metric glossary (enabled via ServiceOptions::metrics; all counters are
// exposed through metrics() and must equal the sums over the returned
// ApplyResults — the parity test pins this):
//   live.epoch_publishes       final snapshots published (applies + 1)
//   live.raised_nodes          estimates raised by the insertions
//   live.region_visited        nodes the insertion passes visited
//   live.dropped_nodes         levels the deletions lowered, summed over
//                              nodes (a fall of two levels counts twice)
//   live.rejected_updates      out-of-range updates dropped
//   live.wal_batches           batch records appended to the WAL
//   live.wal_bytes             bytes appended to the WAL
//   live.checkpoints           checkpoints written (incl. the initial one)
//   live.checkpoint_failures   checkpoint writes that failed (degraded)
//   live.provisional_publishes provisional snapshots published past the
//                              deadline
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/run_options.h"
#include "graph/edge_list.h"
#include "graph/graph.h"
#include "live/checkpoint.h"
#include "live/live_graph.h"
#include "live/repair.h"
#include "live/wal.h"
#include "obs/metrics.h"
#include "util/storage.h"

namespace kcore::live {

struct ServiceOptions {
  /// `threads`, `sched` and `targeted_send` are ignored; removed with
  /// perfbench's `Replayer` in the benchmark change (ROADMAP item 7).
  unsigned threads = 0;
  core::SchedPolicy sched = core::SchedPolicy::kBound;
  bool targeted_send = true;
  /// Keep a live.* metric registry (see metrics_enabled()).
  bool metrics = false;
  /// When > 0, an apply that runs past this many ms publishes a
  /// provisional upper-bound snapshot between its removals, and again
  /// every deadline interval after that (graceful degradation: readers
  /// keep getting fresh sound tables instead of a stale epoch). 0 turns
  /// it off, and apply() then reads no clock.
  std::uint64_t provisional_deadline_ms = 0;
};

/// Where and how the service persists itself. An empty `dir` means no
/// durability (the PR-9 in-memory behavior, bit-identical).
struct DurabilityOptions {
  std::string dir;  // state directory: wal.log + checkpoint-*.ckpt
  FsyncPolicy fsync = FsyncPolicy::kEveryBatch;
  unsigned fsync_every = 8;             // period for FsyncPolicy::kEveryN
  std::uint64_t checkpoint_every = 64;  // batches per checkpoint; 0 = never
  unsigned keep_checkpoints = 2;
  /// Test seam: inject util::MemStorage; null means util::real_storage().
  util::Storage* storage = nullptr;
};

/// What Service::open() reports about a recovery.
struct RecoveryInfo {
  std::string checkpoint_file;
  std::uint64_t checkpoint_epoch = 0;
  std::uint64_t recovered_epoch = 0;  // last epoch published after replay
  std::uint64_t replayed_batches = 0;  // WAL records in the replayed tail
  std::uint64_t skipped_duplicate_batches = 0;
  /// The warm-restart cost of the ONE apply that replays the whole
  /// tail's net effect (RepairStats): the levels it dropped and the
  /// nodes its insertion and removal passes visited.
  /// `replay_relaxations` is always 0; removed with perfbench's
  /// `Replayer` in the benchmark change (ROADMAP item 7).
  std::uint64_t replay_relaxations = 0;
  std::uint64_t replay_dropped = 0;
  std::uint64_t replay_visited = 0;
  std::uint64_t torn_bytes_truncated = 0;
  std::vector<std::string> rejected_checkpoints;  // diagnostics
  /// True when the warm start checked the table with the checkpoint's
  /// stored k-order (its certificate); false when the checkpoint had no
  /// order section and a bucket peel checked it.
  bool order_checked = false;
  /// Wall time of open()'s phases (util::SteadyClock), back to back:
  /// read and decode the newest valid checkpoint; read and validate the
  /// WAL; build the adjacency; set up the engine and warm-start it
  /// (which checks the table); position the appender, replay the tail
  /// and any due checkpoint.
  double load_ms = 0;
  double scan_ms = 0;
  double build_ms = 0;
  double warm_ms = 0;
  double replay_ms = 0;
};

/// What query() hands out: immutable, shared. Final snapshots
/// (provisional == false) are exact; provisional ones are sound upper
/// bounds published mid-apply (see the file comment).
struct Snapshot {
  std::uint64_t epoch = 0;             // publish count (0 = initial)
  std::uint64_t topology_version = 0;  // LiveGraph mutations folded in
  graph::NodeId num_nodes = 0;
  std::uint64_t num_edges = 0;
  bool provisional = false;
  std::vector<graph::NodeId> coreness;
};

/// One apply() call's outcome (the live path's "extras").
struct ApplyResult {
  std::uint64_t epoch = 0;  // the epoch this batch published
  std::uint64_t applied_inserts = 0;   // net edges added
  std::uint64_t applied_removes = 0;   // net edges removed
  std::uint64_t ignored_updates = 0;   // self-loops + net no-ops
  std::uint64_t rejected_updates = 0;  // out-of-range node ids
  std::uint64_t wal_bytes = 0;         // 0 when durability is off / replaying
  std::uint64_t provisional_publishes = 0;  // past the deadline
  bool checkpointed = false;
  bool checkpoint_failed = false;  // degraded: WAL still has the data
  RepairStats repair;
};

class Service {
 public:
  explicit Service(const graph::Graph& initial,
                   const ServiceOptions& options = {});

  /// Fresh DURABLE service: converges `initial`, then creates the WAL
  /// and writes the initial checkpoint into durability.dir. Refuses
  /// (util::IoError) a directory that already holds service state —
  /// recovering over it silently would discard a history; use open().
  Service(const graph::Graph& initial, const ServiceOptions& options,
          const DurabilityOptions& durability);

  /// Recover a durable service from durability.dir (see the durability
  /// contract above): the adjacency is built straight from the newest
  /// valid checkpoint's canonical edge list, and the WAL tail past it is
  /// replayed as one net batch, so the cost follows the bytes checked
  /// and the net change repaired. Throws util::IoError with an
  /// actionable one-line message when the directory holds nothing
  /// recoverable, when the WAL skips an epoch, or when the newest valid
  /// checkpoint's coreness table is not the coreness of its topology.
  /// `info` (optional) gets the counts and phase times.
  [[nodiscard]] static std::unique_ptr<Service> open(
      const ServiceOptions& options, const DurabilityOptions& durability,
      RecoveryInfo* info = nullptr);

  ~Service();

  /// The last published snapshot (never null). Thread-safe; concurrent
  /// with apply().
  [[nodiscard]] std::shared_ptr<const Snapshot> query() const;

  /// Apply one batch: WAL-append (durable mode), mutate topology and
  /// repair edge by edge, publish a new epoch. Single-writer.
  ApplyResult apply(std::span<const graph::EdgeUpdate> batch);

  /// Force a checkpoint now (also syncs the WAL). Durable mode only.
  void checkpoint();

  /// Writer-side view of the current topology (do not call concurrently
  /// with apply()).
  [[nodiscard]] const LiveGraph& graph() const noexcept { return graph_; }

  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] bool durable() const noexcept { return wal_.has_value(); }

  /// True when options.metrics asked for the registry.
  [[nodiscard]] bool metrics_enabled() const noexcept {
    return registry_ != nullptr;
  }
  /// Snapshot of the live.* counters; empty when metrics are off.
  [[nodiscard]] obs::MetricsSnapshot metrics() const;

 private:
  /// A checkpoint's coreness table to warm-start from (recovery).
  struct WarmStart {
    const std::vector<graph::NodeId>& coreness;
    const std::vector<graph::NodeId>& order;  // its k-order, or empty
    const std::string& file;  // named when the table is refused
    std::uint64_t epoch;      // the epoch the table is exact for
  };

  /// The one start-up body behind every constructor: takes the built
  /// adjacency, then metrics, then a bucket peel (warm == nullptr) or a
  /// warm start from the checked table `warm->coreness` (recovery), then
  /// the publish of the epoch.
  Service(LiveGraph initial, const ServiceOptions& options,
          const DurabilityOptions& durability, const WarmStart* warm);

  // The registry's one lane: obs::Registry::add is a plain load+store,
  // and the writer thread is the only one that counts.
  static constexpr unsigned kWriterSlot = 0;

  void setup_metrics();
  /// Hand readers a snapshot of the current table, stamped with the
  /// pending epoch and the given topology version and edge count.
  void install_snapshot(std::uint64_t topology_version,
                        std::uint64_t num_edges, bool provisional);
  /// Install the final snapshot of the pending epoch and advance it.
  void publish();
  /// Sync the WAL and write a checkpoint for the last published epoch.
  void write_checkpoint_now();

  ServiceOptions options_;
  DurabilityOptions durability_;
  LiveGraph graph_;
  RepairEngine engine_;

  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> snapshot_;  // guarded by snapshot_mutex_
  std::uint64_t epoch_ = 0;  // written only by the writer thread

  // Durability (writer-thread only)
  util::Storage* storage_ = nullptr;  // set iff durable
  std::optional<Wal> wal_;
  std::uint64_t batches_since_checkpoint_ = 0;
  bool replaying_ = false;  // recovery replay: no re-append, no checkpoints

  // live.* telemetry (writer lane only, see kWriterSlot)
  std::unique_ptr<obs::Registry> registry_;
  obs::Counter c_epochs_;
  obs::Counter c_raised_;
  obs::Counter c_region_visited_;
  obs::Counter c_dropped_;
  obs::Counter c_rejected_;
  obs::Counter c_wal_batches_;
  obs::Counter c_wal_bytes_;
  obs::Counter c_checkpoints_;
  obs::Counter c_checkpoint_failures_;
  obs::Counter c_provisional_;
};

}  // namespace kcore::live
