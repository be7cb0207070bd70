#include "live/service.h"

#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "util/clock.h"

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
    : Service(LiveGraph(initial), options, DurabilityOptions{}, nullptr) {}

Service::Service(const graph::Graph& initial, const ServiceOptions& options,
                 const DurabilityOptions& durability)
    : Service(LiveGraph(initial), options, fresh_state_dir(durability),
              nullptr) {
  // WAL first (its epoch mark pins the base), then the initial
  // checkpoint pointing at the WAL's durable end. A crash between the
  // two leaves wal.log without a checkpoint, which open() reports as
  // unrecoverable-with-reason — the operator re-creates the fresh dir.
  wal_.emplace(Wal::create(*storage_, wal_path_of(durability_.dir),
                           /*epoch=*/0, wal_options_of(durability_)));
  write_checkpoint_now();
}

Service::Service(LiveGraph initial, const ServiceOptions& options,
                 const DurabilityOptions& durability, const WarmStart* warm)
    : options_(options),
      durability_(durability),
      graph_(std::move(initial)),
      engine_(graph_, RepairOptions{}),
      epoch_(warm != nullptr ? warm->epoch : 0) {
  if (!durability.dir.empty()) storage_ = &resolve_storage(durability);
  setup_metrics();
  if (warm != nullptr) {
    // A CRC only proves the bytes are the ones written, so the table is
    // checked before it is served: by the stored k-order's O(n + m)
    // certificate, or by a bucket peel when the checkpoint has no order.
    if (const std::optional<std::string> failed =
            engine_.warm_start(warm->coreness, warm->order)) {
      throw util::IoError(warm->file +
                          ": checkpoint coreness table is not the coreness "
                          "of its topology (" +
                          *failed + ")");
    }
  } else {
    engine_.initialize();
  }
  publish();  // the initial table, or the checkpointed epoch
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
  util::SteadyClock::time_point mark = util::SteadyClock::now();
  // Milliseconds since the previous phase ended; starts the next one.
  const auto phase_ms = [&mark] {
    const util::SteadyClock::time_point now = util::SteadyClock::now();
    const double ms = util::ms_between(mark, now);
    mark = now;
    return ms;
  };

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
  ri.load_ms = phase_ms();

  // One read, one validating pass over the WAL. The pass starts at 0 so
  // the epoch mark is checked (a foreign or mismatched log is refused
  // instead of replayed onto the wrong base) and every record's CRC and
  // framing is checked; only the batches past the checkpoint are decoded.
  // The same scan positions the appender below.
  WalReadResult scan;
  const bool have_wal = storage.exists(wal_path);
  if (have_wal) {
    scan = Wal::scan(storage, wal_path, ckpt.epoch);
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
  }
  ri.scan_ms = phase_ms();

  // The adjacency comes straight from the checkpoint's edge list, which
  // the decoder has checked is canonical.
  LiveGraph graph(ckpt.num_nodes, ckpt.edges);
  ri.build_ms = phase_ms();
  const WarmStart warm{ckpt.coreness, ckpt.order, loaded.file, ckpt.epoch};
  std::unique_ptr<Service> service(
      new Service(std::move(graph), options, durability, &warm));
  ri.order_checked = !ckpt.order.empty();
  ri.warm_ms = phase_ms();

  if (have_wal) {
    service->wal_.emplace(
        Wal::open(storage, wal_path, wal_options_of(durability), scan));
  } else {
    // Checkpoint-only directory (WAL lost or deleted): the checkpoint is
    // a complete state, so recover from it and start a fresh log.
    service->wal_.emplace(Wal::create(storage, wal_path, ri.checkpoint_epoch,
                                      wal_options_of(durability)));
  }

  // Gather the tail, idempotent by epoch: duplicates (a retried append
  // after a transient I/O error) are skipped, gaps are refused.
  std::uint64_t next_epoch = service->epoch_;
  std::vector<graph::EdgeUpdate> tail;
  for (WalBatch& b : scan.batches) {
    if (b.epoch < next_epoch) {
      ++ri.skipped_duplicate_batches;
      continue;
    }
    if (b.epoch > next_epoch) {
      throw util::IoError(wal_path + ": WAL epoch gap — expected a record for epoch " +
                          std::to_string(next_epoch) + ", found epoch " +
                          std::to_string(b.epoch) +
                          " (records lost between checkpoints?)");
    }
    tail.insert(tail.end(), b.updates.begin(), b.updates.end());
    ++next_epoch;
    ++ri.replayed_batches;
  }
  // ... and replay it as ONE batch through the normal apply() path. The
  // coalesced concatenation is the net effect of the batches in order
  // (the last op per edge decides), so one repair lands on the exact
  // table the per-batch replay would, paying only for the net change.
  // apply() publishes epoch_, so it is set to the last tail epoch; the
  // epochs before it are never observable (the service is not returned
  // yet).
  if (ri.replayed_batches > 0) {
    service->epoch_ = next_epoch - 1;
    service->replaying_ = true;
    const ApplyResult r = service->apply(tail);
    service->replaying_ = false;
    ri.replay_relaxations = r.repair.relaxations;
    ri.replay_dropped = r.repair.dropped;
    ri.replay_visited = r.repair.region_visited + r.repair.removal_visited;
  }
  service->batches_since_checkpoint_ = ri.replayed_batches;
  if (durability.checkpoint_every > 0 &&
      service->batches_since_checkpoint_ >= durability.checkpoint_every) {
    service->write_checkpoint_now();
  }
  ri.replay_ms = phase_ms();
  ri.recovered_epoch = service->epoch_ - 1;
  return service;
}

void Service::setup_metrics() {
  if (!options_.metrics) return;
  // One lane, the writer's — see kWriterSlot in service.h.
  registry_ = std::make_unique<obs::Registry>(1);
  c_epochs_ = registry_->counter("live.epoch_publishes");
  c_raised_ = registry_->counter("live.raised_nodes");
  c_region_visited_ = registry_->counter("live.region_visited");
  c_dropped_ = registry_->counter("live.dropped_nodes");
  c_rejected_ = registry_->counter("live.rejected_updates");
  c_wal_batches_ = registry_->counter("live.wal_batches");
  c_wal_bytes_ = registry_->counter("live.wal_bytes");
  c_checkpoints_ = registry_->counter("live.checkpoints");
  c_checkpoint_failures_ = registry_->counter("live.checkpoint_failures");
  c_provisional_ = registry_->counter("live.provisional_publishes");
}

std::shared_ptr<const Snapshot> Service::query() const {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

std::uint64_t Service::epoch() const { return query()->epoch; }

void Service::install_snapshot(std::uint64_t topology_version,
                               std::uint64_t num_edges, bool provisional) {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->epoch = epoch_;
  snapshot->topology_version = topology_version;
  snapshot->num_nodes = graph_.num_nodes();
  snapshot->num_edges = num_edges;
  snapshot->provisional = provisional;
  engine_.copy_coreness(snapshot->coreness);
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = std::move(snapshot);
}

void Service::publish() {
  install_snapshot(graph_.version(), graph_.num_edges(),
                   /*provisional=*/false);
  ++epoch_;
  if (registry_) registry_->add(c_epochs_, kWriterSlot, 1);
}

ApplyResult Service::apply(std::span<const graph::EdgeUpdate> batch) {
  using Clock = util::SteadyClock;
  const bool watched = options_.provisional_deadline_ms > 0;
  const auto deadline =
      std::chrono::milliseconds(options_.provisional_deadline_ms);
  Clock::time_point next_provisional;
  if (watched) next_provisional = Clock::now() + deadline;
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

  // The pending epoch's topology: coalesce leaves only absent inserts and
  // present removes, so each one is a mutation.
  const std::uint64_t final_version =
      graph_.version() + net.inserts.size() + net.removes.size();
  const std::uint64_t final_edges =
      graph_.num_edges() + net.inserts.size() - net.removes.size();

  // Each note leaves the table exact for the graph so far (see
  // live/repair.h). Insertions first: from the last one on, the graph so
  // far is a supergraph of the pending topology, so the table is a sound
  // upper bound for it, and past the deadline it is published as a
  // provisional snapshot of the pending epoch.
  for (const graph::Edge& e : net.inserts) {
    graph_.apply({graph::EdgeOp::kInsert, e.u, e.v});
    engine_.note_insert(e.u, e.v);
  }
  for (const graph::Edge& e : net.removes) {
    graph_.apply({graph::EdgeOp::kRemove, e.u, e.v});
    engine_.note_remove(e.u, e.v);
    if (!watched) continue;
    const Clock::time_point now = Clock::now();
    if (now < next_provisional) continue;
    install_snapshot(final_version, final_edges, /*provisional=*/true);
    ++result.provisional_publishes;
    if (registry_) registry_->add(c_provisional_, kWriterSlot, 1);
    next_provisional = now + deadline;
  }
  KCORE_CHECK(graph_.version() == final_version);

  result.repair = engine_.repair();
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
    registry_->add(c_raised_, kWriterSlot, result.repair.raised);
    registry_->add(c_region_visited_, kWriterSlot,
                   result.repair.region_visited);
    registry_->add(c_dropped_, kWriterSlot, result.repair.dropped);
    registry_->add(c_rejected_, kWriterSlot, result.rejected_updates);
    if (result.wal_bytes > 0) {
      registry_->add(c_wal_batches_, kWriterSlot, 1);
      registry_->add(c_wal_bytes_, kWriterSlot, result.wal_bytes);
    }
  }
  return result;
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
  engine_.copy_order(data.order);
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

obs::MetricsSnapshot Service::metrics() const {
  if (!registry_) return {};
  return registry_->snapshot();
}

}  // namespace kcore::live
