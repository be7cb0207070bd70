#include "live/service.h"

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "obs/options.h"

namespace kcore::live {

using graph::NodeId;

namespace {

util::Storage& resolve_storage(const DurabilityOptions& durability) {
  return durability.storage != nullptr ? *durability.storage
                                       : util::real_storage();
}

std::string wal_path_of(const std::string& dir) { return dir + "/wal.log"; }

WalOptions wal_options_of(const DurabilityOptions& durability) {
  return WalOptions{durability.fsync, durability.fsync_every};
}

/// Create the state directory of a fresh durable service, refusing one
/// that already holds service state: silently re-initializing would
/// orphan a recoverable history. The operator either recovers
/// (Service::open / --recover) or points at an empty directory.
const DurabilityOptions& fresh_state_dir(const DurabilityOptions& durability) {
  KCORE_CHECK_MSG(!durability.dir.empty(),
                  "DurabilityOptions::dir must be set for a durable Service");
  util::Storage& storage = resolve_storage(durability);
  storage.make_dir(durability.dir);
  for (const std::string& name : storage.list_dir(durability.dir)) {
    if (name == "wal.log" || name.find("checkpoint") == 0) {
      throw util::IoError(durability.dir +
                          ": already contains service state (" + name +
                          ") — recover it with --recover, or use an empty "
                          "directory for a fresh service");
    }
  }
  return durability;
}

}  // namespace

Service::Service(const graph::Graph& initial, const ServiceOptions& options)
    : Service(initial, options, DurabilityOptions{}, nullptr) {}

Service::Service(const graph::Graph& initial, const ServiceOptions& options,
                 const DurabilityOptions& durability)
    : Service(initial, options, fresh_state_dir(durability), nullptr) {
  // WAL first (its epoch mark pins the base), then the initial
  // checkpoint pointing at the WAL's durable end. A crash between the
  // two leaves wal.log without a checkpoint, which open() reports as
  // unrecoverable-with-reason — the operator re-creates the fresh dir.
  wal_.emplace(Wal::create(*storage_, wal_path_of(durability_.dir),
                           /*epoch=*/0, wal_options_of(durability_)));
  write_checkpoint_now();
}

Service::Service(const graph::Graph& initial, const ServiceOptions& options,
                 const DurabilityOptions& durability, const WarmStart* warm)
    : options_(options),
      durability_(durability),
      graph_(initial),
      engine_(graph_, RepairOptions{options.threads, options.sched,
                                    options.targeted_send}),
      epoch_(warm != nullptr ? warm->epoch : 0) {
  if (!durability.dir.empty()) storage_ = &resolve_storage(durability);
  setup_metrics();
  if (warm != nullptr) {
    // An exact table for the checkpointed topology means recovery pays
    // ZERO up-front relaxations (vs initialize()'s full convergence) —
    // the paper's warm-restart argument, in one call. A CRC only proves
    // the bytes are the ones written, so the k-order's peel checks the
    // table before it is served.
    if (const std::optional<NodeId> bad =
            engine_.warm_start(warm->coreness)) {
      throw util::IoError(
          warm->file + ": checkpoint coreness table is not the coreness of " +
          "its topology (first wrong entry: node " + std::to_string(*bad) +
          ", stored " + std::to_string(warm->coreness[*bad]) + ")");
    }
  } else {
    initial_stats_ = engine_.initialize();
    if (registry_) {
      registry_->add(c_repairs_, kWriterSlot, 1);
      registry_->add(c_relaxations_, kWriterSlot, initial_stats_.relaxations);
      registry_->add(c_seeded_, kWriterSlot, initial_stats_.seeded);
    }
  }
  publish();  // the initial converged table, or the checkpointed epoch
}

Service::~Service() = default;

std::unique_ptr<Service> Service::open(const ServiceOptions& options,
                                       const DurabilityOptions& durability,
                                       RecoveryInfo* info) {
  if (durability.dir.empty()) {
    throw util::IoError(
        "recovery requires a state directory (DurabilityOptions::dir)");
  }
  util::Storage& storage = resolve_storage(durability);
  const std::string& dir = durability.dir;
  if (!storage.exists(dir)) {
    throw util::IoError(dir + ": state directory does not exist");
  }

  RecoveryInfo local_info;
  RecoveryInfo& ri = info != nullptr ? *info : local_info;

  CheckpointLoadResult loaded = load_latest_checkpoint(storage, dir);
  ri.rejected_checkpoints = loaded.rejected;
  const std::string wal_path = wal_path_of(dir);
  if (!loaded.data.has_value()) {
    std::string msg = dir + ": no valid checkpoint to recover from";
    for (const std::string& r : loaded.rejected) msg += "; " + r;
    if (storage.exists(wal_path)) {
      msg += "; wal.log is present but a WAL alone has no base topology";
    }
    msg += " — start a fresh durable service to create one";
    throw util::IoError(msg);
  }
  CheckpointData ckpt = std::move(*loaded.data);
  ri.checkpoint_file = loaded.file;
  ri.checkpoint_epoch = ckpt.epoch;

  // Scan the WAL (from 0: validates the epoch mark, so a foreign or
  // mismatched log is refused instead of replayed onto the wrong base).
  std::vector<WalBatch> tail;
  const bool have_wal = storage.exists(wal_path);
  if (have_wal) {
    WalReadResult scan = Wal::read(storage, wal_path, 0);
    if (!scan.has_start_mark) {
      throw util::IoError(wal_path +
                          ": missing epoch mark at offset 0 — not a WAL this "
                          "service wrote (or its head is corrupt)");
    }
    if (scan.start_epoch > ckpt.epoch) {
      throw util::IoError(
          wal_path + ": WAL base epoch " + std::to_string(scan.start_epoch) +
          " is newer than checkpoint epoch " + std::to_string(ckpt.epoch) +
          " — mismatched state files in " + dir);
    }
    if (ckpt.wal_offset > scan.valid_end) {
      throw util::IoError(
          wal_path + ": checkpoint references WAL offset " +
          std::to_string(ckpt.wal_offset) + " but only " +
          std::to_string(scan.valid_end) +
          " bytes are valid — the WAL lost synced data (state inconsistent)");
    }
    ri.torn_bytes_truncated = scan.torn_bytes;
    for (WalBatch& b : scan.batches) {
      if (b.epoch > ckpt.epoch) tail.push_back(std::move(b));
    }
  }

  const WarmStart warm{ckpt.coreness, loaded.file, ckpt.epoch};
  std::unique_ptr<Service> service(
      new Service(graph::Graph::from_edges(ckpt.num_nodes, ckpt.edges),
                  options, durability, &warm));

  if (have_wal) {
    service->wal_.emplace(Wal::open(storage, wal_path,
                                    wal_options_of(durability), nullptr));
  } else {
    // Checkpoint-only directory (WAL lost or deleted): the checkpoint is
    // a complete state, so recover from it and start a fresh log.
    service->wal_.emplace(Wal::create(storage, wal_path, ri.checkpoint_epoch,
                                      wal_options_of(durability)));
  }

  // Replay the tail through the normal apply() path — idempotent by
  // epoch: duplicates (a retried append after a transient I/O error)
  // are skipped, gaps are refused.
  service->replaying_ = true;
  for (const WalBatch& b : tail) {
    if (b.epoch < service->epoch_) {
      ++ri.skipped_duplicate_batches;
      continue;
    }
    if (b.epoch > service->epoch_) {
      service->replaying_ = false;
      throw util::IoError(wal_path + ": WAL epoch gap — expected a record for epoch " +
                          std::to_string(service->epoch_) + ", found epoch " +
                          std::to_string(b.epoch) +
                          " (records lost between checkpoints?)");
    }
    ApplyResult r = service->apply(b.updates);
    ++ri.replayed_batches;
    ri.replay_relaxations += r.repair.relaxations;
  }
  service->replaying_ = false;
  service->batches_since_checkpoint_ = ri.replayed_batches;
  if (durability.checkpoint_every > 0 &&
      service->batches_since_checkpoint_ >= durability.checkpoint_every) {
    service->write_checkpoint_now();
  }
  ri.recovered_epoch = service->epoch_ - 1;
  return service;
}

void Service::setup_metrics() {
  if (!(obs::kEnabled && options_.metrics)) return;
  // Three single-writer lanes — see the slot constants in service.h.
  registry_ = std::make_unique<obs::Registry>(3);
  c_repairs_ = registry_->counter("live.repairs");
  c_epochs_ = registry_->counter("live.epoch_publishes");
  c_relaxations_ = registry_->counter("live.relaxations");
  c_seeded_ = registry_->counter("live.seeded_nodes");
  c_raised_ = registry_->counter("live.raised_nodes");
  c_region_visited_ = registry_->counter("live.region_visited");
  c_rejected_ = registry_->counter("live.rejected_updates");
  c_wal_batches_ = registry_->counter("live.wal_batches");
  c_wal_bytes_ = registry_->counter("live.wal_bytes");
  c_checkpoints_ = registry_->counter("live.checkpoints");
  c_checkpoint_failures_ = registry_->counter("live.checkpoint_failures");
  c_provisional_ = registry_->counter("live.provisional_publishes");
  c_overload_ = registry_->counter("live.overload_rejects");
}

std::shared_ptr<const Snapshot> Service::query() const {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

std::uint64_t Service::epoch() const { return query()->epoch; }

void Service::install_snapshot(bool provisional) {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->epoch = epoch_;
  snapshot->topology_version = graph_.version();
  snapshot->num_nodes = graph_.num_nodes();
  snapshot->num_edges = graph_.num_edges();
  snapshot->provisional = provisional;
  engine_.copy_coreness(snapshot->coreness);
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = std::move(snapshot);
}

void Service::publish() {
  install_snapshot(/*provisional=*/false);
  ++epoch_;
  if (registry_) registry_->add(c_epochs_, kWriterSlot, 1);
}

RepairStats Service::repair_with_watchdog(
    std::uint64_t& provisional_publishes) {
  provisional_publishes = 0;
  if (options_.provisional_deadline_ms == 0) return engine_.repair();

  repair_done_ = false;
  std::uint64_t published = 0;
  std::thread watchdog([this, &published] {
    const auto deadline =
        std::chrono::milliseconds(options_.provisional_deadline_ms);
    std::unique_lock<std::mutex> lock(watchdog_mutex_);
    while (!repair_done_) {
      if (watchdog_cv_.wait_for(lock, deadline,
                                [this] { return repair_done_; })) {
        break;
      }
      // Still repairing past the deadline: push a provisional snapshot
      // of the PENDING epoch, finalized by publish(). The estimate table
      // is a sound upper bound mid-repair (raises are done before the
      // workers start; relaxation only moves estimates DOWN), so handing
      // it out keeps readers fresh without breaking Theorem 1. Holding
      // watchdog_mutex_ here means the writer cannot set repair_done_
      // (let alone publish the final epoch) while a provisional publish
      // is in flight — the final publish always lands last.
      install_snapshot(/*provisional=*/true);
      if (registry_) registry_->add(c_provisional_, kWatchdogSlot, 1);
      ++published;
    }
  });
  RepairStats stats = engine_.repair();
  {
    const std::lock_guard<std::mutex> lock(watchdog_mutex_);
    repair_done_ = true;
  }
  watchdog_cv_.notify_one();
  watchdog.join();
  provisional_publishes = published;
  return stats;
}

ApplyResult Service::apply(std::span<const graph::EdgeUpdate> batch) {
  ApplyResult result;

  // WRITE-AHEAD: durable mode appends the raw batch (under the epoch it
  // will publish) before any mutation. An IoError here leaves the
  // service fully consistent at the previous epoch. Recovery replay
  // skips this — the records are already in the log.
  if (wal_ && !replaying_) {
    result.wal_bytes = wal_->append(
        WalBatch{epoch_, std::vector<graph::EdgeUpdate>(batch.begin(),
                                                        batch.end())});
  }

  // Net topology effect. Out-of-range ids are rejected and counted, not
  // KCORE_CHECKed: a service survives garbage input.
  const graph::NetUpdates net = graph::coalesce(
      batch, graph_.num_nodes(),
      [this](NodeId u, NodeId v) { return graph_.has_edge(u, v); });
  result.rejected_updates = net.rejected;
  result.ignored_updates = net.ignored;
  result.applied_inserts = net.inserts.size();
  result.applied_removes = net.removes.size();

  // Insertions first: each raise runs against a table that is exact for
  // the graph-so-far, which keeps the raises (and therefore the single
  // repair below) exact — see live/repair.h.
  for (const graph::Edge& e : net.inserts) {
    graph_.apply({graph::EdgeOp::kInsert, e.u, e.v});
    engine_.note_insert(e.u, e.v);
  }
  for (const graph::Edge& e : net.removes) {
    graph_.apply({graph::EdgeOp::kRemove, e.u, e.v});
    engine_.note_remove(e.u, e.v);
  }

  result.repair = repair_with_watchdog(result.provisional_publishes);
  publish();
  result.epoch = epoch_ - 1;

  // Checkpoint cadence. A failed checkpoint degrades instead of
  // killing the apply: the WAL has the batch, the counter records the
  // failure, and the next apply retries (batches_since_checkpoint_ is
  // only reset on success). A CrashPoint (simulated power cut in
  // tests) is NOT caught — it must unwind like the real thing.
  if (wal_ && !replaying_) {
    ++batches_since_checkpoint_;
    if (durability_.checkpoint_every > 0 &&
        batches_since_checkpoint_ >= durability_.checkpoint_every) {
      try {
        write_checkpoint_now();
        result.checkpointed = true;
      } catch (const util::IoError&) {
        result.checkpoint_failed = true;
        if (registry_) registry_->add(c_checkpoint_failures_, kWriterSlot, 1);
      }
    }
  }

  if (registry_) {
    if (result.repair.seeded > 0) registry_->add(c_repairs_, kWriterSlot, 1);
    registry_->add(c_relaxations_, kWriterSlot, result.repair.relaxations);
    registry_->add(c_seeded_, kWriterSlot, result.repair.seeded);
    registry_->add(c_raised_, kWriterSlot, result.repair.raised);
    registry_->add(c_region_visited_, kWriterSlot,
                   result.repair.region_visited);
    registry_->add(c_rejected_, kWriterSlot, result.rejected_updates);
    if (result.wal_bytes > 0) {
      registry_->add(c_wal_batches_, kWriterSlot, 1);
      registry_->add(c_wal_bytes_, kWriterSlot, result.wal_bytes);
    }
  }
  return result;
}

std::vector<ApplyResult> Service::replay(
    std::span<const graph::EdgeUpdateBatch> batches) {
  std::vector<ApplyResult> results;
  results.reserve(batches.size());
  for (const graph::EdgeUpdateBatch& batch : batches) {
    results.push_back(apply(batch.updates));
  }
  return results;
}

void Service::write_checkpoint_now() {
  KCORE_CHECK(wal_.has_value());
  // Barrier: the WAL must be durable up to the offset the checkpoint
  // records, or a crash could leave a checkpoint pointing past the log.
  wal_->sync();
  CheckpointData data;
  data.epoch = epoch_ - 1;  // last PUBLISHED epoch
  data.wal_offset = wal_->end_offset();
  data.num_nodes = graph_.num_nodes();
  data.edges = graph_.edges();
  engine_.copy_coreness(data.coreness);
  write_checkpoint(*storage_, durability_.dir, data,
                   durability_.keep_checkpoints);
  batches_since_checkpoint_ = 0;
  if (registry_) registry_->add(c_checkpoints_, kWriterSlot, 1);
}

void Service::checkpoint() {
  KCORE_CHECK_MSG(wal_.has_value(),
                  "checkpoint() requires a durable Service (set "
                  "DurabilityOptions::dir)");
  write_checkpoint_now();
}

void Service::note_overload_reject(std::uint64_t n) {
  if (registry_) registry_->add(c_overload_, kIngressSlot, n);
}

obs::MetricsSnapshot Service::metrics() const {
  if (!registry_) return {};
  return registry_->snapshot();
}

}  // namespace kcore::live
