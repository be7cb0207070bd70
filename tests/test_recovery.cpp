// Crash recovery, pinned exhaustively.
//
// The central property test is a CRASH MATRIX: run a durable service
// over a churn trace once to count every storage operation, then re-run
// it with a simulated power cut at EVERY operation index (clean crash
// and torn-write variants), recover, and require the recovered coreness
// to be bit-identical to a from-scratch Batagelj–Zaveršnik run of the
// recovered topology — then finish the trace and require the final
// state to match an undisturbed run. The paper's re-convergence theorems
// say a warm restart from any sound persisted table is exact; this file
// is that claim under every crash the storage model can express.
//
// Around the matrix: transient-EIO degradation (apply fails, service
// stays consistent, retry succeeds), the degenerate state directories
// (empty, checkpoint-only, WAL-only, corrupt checkpoint, corrupt WAL
// tail, duplicates, epoch gaps), seeded mutations of the WAL and of the
// newest checkpoint (each mutant recovers exactly or is refused), and the
// warm-restart cost pin (recovery relaxations << from-scratch
// convergence).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dynamic.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "live/checkpoint.h"
#include "live/service.h"
#include "live/wal.h"
#include "live/wire.h"
#include "seq/kcore_seq.h"
#include "util/crc32.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/storage.h"

namespace kcore::live {
namespace {

namespace gen = kcore::graph::gen;
using graph::EdgeOp;
using graph::EdgeUpdate;
using graph::Graph;
using graph::NodeId;
using util::FaultPlan;

constexpr char kDir[] = "state";

struct Trace {
  const char* name;
  Graph base;
  std::vector<graph::EdgeUpdateBatch> log;
};

Trace make_trace(int kind, std::uint64_t seed) {
  Trace trace;
  switch (kind) {
    case 0:
      trace.name = "er";
      trace.base = gen::erdos_renyi_gnm(48, 110, seed);
      break;
    case 1:
      trace.name = "ba";
      trace.base = gen::barabasi_albert(40, 3, seed);
      break;
    default:
      trace.name = "grid";
      trace.base = gen::grid(6, 7);
      break;
  }
  util::Xoshiro256 rng(seed * 131 + static_cast<std::uint64_t>(kind));
  const NodeId n = trace.base.num_nodes();
  for (int b = 0; b < 6; ++b) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < 6; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      const auto v = static_cast<NodeId>(rng.next_below(n));
      batch.push_back(
          {rng.next_bool(0.55) ? EdgeOp::kInsert : EdgeOp::kRemove, u, v});
    }
    trace.log.push_back({.updates = std::move(batch)});
  }
  return trace;
}

std::vector<NodeId> expected_final_coreness(const Trace& trace) {
  core::DynamicKCore replica(trace.base);
  for (std::size_t b = 0; b < trace.log.size(); ++b) {
    replica.apply_batch(trace.log[b].updates);
  }
  return replica.coreness();
}

DurabilityOptions mem_durability(util::MemStorage& fs) {
  DurabilityOptions durability;
  durability.dir = kDir;
  durability.storage = &fs;
  durability.checkpoint_every = 2;  // exercise cadence mid-trace
  durability.keep_checkpoints = 2;
  return durability;
}

/// Run the full trace on a durable service over `fs`. Returns false if a
/// CrashPoint unwound it (the armed fault fired).
bool run_trace(util::MemStorage& fs, const Trace& trace,
               std::uint64_t* ctor_ops = nullptr) {
  try {
    Service service(trace.base, ServiceOptions{}, mem_durability(fs));
    if (ctor_ops != nullptr) *ctor_ops = fs.op_count();
    for (std::size_t b = 0; b < trace.log.size(); ++b) {
      service.apply(trace.log[b].updates);
    }
    return true;
  } catch (const util::CrashPoint&) {
    return false;
  }
}

// --- the crash matrix -------------------------------------------------------

TEST(Recovery, CrashMatrixEveryFaultSiteRecoversExactly) {
  std::uint64_t sites = 0;
  std::uint64_t refusals = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Trace trace = make_trace(kind, seed);
      const std::vector<NodeId> expected = expected_final_coreness(trace);

      // Dry run: learn the op count and the constructor's watermark.
      std::uint64_t total_ops = 0;
      std::uint64_t ctor_ops = 0;
      {
        util::MemStorage fs;
        ASSERT_TRUE(run_trace(fs, trace, &ctor_ops));
        total_ops = fs.op_count();
      }
      ASSERT_GT(total_ops, ctor_ops);

      for (const FaultPlan::Kind fault :
           {FaultPlan::Kind::kCrashBefore, FaultPlan::Kind::kTorn}) {
        for (std::uint64_t at = 0; at < total_ops; ++at) {
          ++sites;
          util::MemStorage fs;
          fs.set_fault({fault, at});
          ASSERT_FALSE(run_trace(fs, trace))
              << trace.name << " seed " << seed << " op " << at
              << ": armed fault never fired";
          ASSERT_TRUE(fs.crashed());

          RecoveryInfo info;
          std::unique_ptr<Service> recovered;
          try {
            recovered =
                Service::open(ServiceOptions{}, mem_durability(fs), &info);
          } catch (const util::IoError& e) {
            // Refusal is only legal while the FIRST checkpoint was still
            // in flight (a fresh directory is not yet recoverable), and
            // it must name the directory.
            ASSERT_LT(at, ctor_ops)
                << trace.name << " seed " << seed << " op " << at << ": "
                << e.what();
            ASSERT_NE(std::string(e.what()).find(kDir), std::string::npos);
            ++refusals;
            continue;
          }

          // The recovered table must be exact for the recovered topology
          // (never a stale or half-applied mix), ...
          ASSERT_EQ(recovered->query()->coreness,
                    seq::coreness_bz(recovered->graph().snapshot()))
              << trace.name << " seed " << seed << " fault "
              << static_cast<int>(fault) << " op " << at;
          // ... and finishing the trace from where recovery left off
          // lands on the undisturbed final state bit-for-bit.
          ASSERT_LE(info.recovered_epoch, trace.log.size());
          for (std::size_t b =
                   static_cast<std::size_t>(info.recovered_epoch);
               b < trace.log.size(); ++b) {
            recovered->apply(trace.log[b].updates);
          }
          ASSERT_EQ(recovered->query()->coreness, expected)
              << trace.name << " seed " << seed << " fault "
              << static_cast<int>(fault) << " op " << at;
        }
      }
    }
  }
  // The matrix must actually have covered both regimes.
  EXPECT_GT(sites, 0U);
  EXPECT_GT(refusals, 0U);       // some crashes land before the first ckpt
  EXPECT_LT(refusals, sites / 2);  // but most sites recover
}

// --- transient I/O failure: degrade, stay consistent, retry -----------------

TEST(Recovery, TransientIoFailureDegradesGracefully) {
  const Trace trace = make_trace(0, 3);
  const std::vector<NodeId> expected = expected_final_coreness(trace);
  std::uint64_t total_ops = 0;
  {
    util::MemStorage fs;
    ASSERT_TRUE(run_trace(fs, trace));
    total_ops = fs.op_count();
  }

  std::uint64_t apply_failures = 0;
  std::uint64_t checkpoint_failures = 0;
  for (std::uint64_t at = 0; at < total_ops; ++at) {
    util::MemStorage fs;
    fs.set_fault({FaultPlan::Kind::kFail, at});
    std::unique_ptr<Service> service;
    try {
      service = std::make_unique<Service>(trace.base, ServiceOptions{},
                                          mem_durability(fs));
    } catch (const util::IoError& e) {
      // EIO while creating the fresh directory: a clean, actionable
      // failure before the service ever existed.
      ASSERT_FALSE(std::string(e.what()).empty());
      continue;
    }
    for (std::size_t b = 0; b < trace.log.size(); ++b) {
      ApplyResult result;
      try {
        result = service->apply(trace.log[b].updates);
      } catch (const util::IoError&) {
        ++apply_failures;
        // The WAL append failed BEFORE any mutation: still consistent
        // at the previous epoch.
        ASSERT_EQ(service->query()->coreness,
                  seq::coreness_bz(service->graph().snapshot()))
            << "op " << at << " batch " << b;
        result = service->apply(trace.log[b].updates);  // fault disarmed
      }
      if (result.checkpoint_failed) ++checkpoint_failures;
    }
    ASSERT_EQ(service->query()->coreness, expected) << "op " << at;

    // The degraded run is still recoverable: power-cut it and reopen.
    service.reset();
    fs.crash();
    RecoveryInfo info;
    const auto recovered =
        Service::open(ServiceOptions{}, mem_durability(fs), &info);
    for (std::size_t b = static_cast<std::size_t>(info.recovered_epoch);
         b < trace.log.size(); ++b) {
      recovered->apply(trace.log[b].updates);
    }
    ASSERT_EQ(recovered->query()->coreness, expected) << "op " << at;
  }
  // The sweep must have hit both degradation paths: a propagated WAL
  // failure and a swallowed-but-counted checkpoint failure.
  EXPECT_GT(apply_failures, 0U);
  EXPECT_GT(checkpoint_failures, 0U);
}

// --- degenerate state directories -------------------------------------------

class RecoveryDegenerate : public ::testing::Test {
 protected:
  // A finished durable run: initial checkpoint at epoch 0, WAL records
  // for epochs 1..6, cadence checkpoints at epochs 2/4/6 (keep 2).
  void SetUp() override {
    trace_ = make_trace(1, 5);
    expected_ = expected_final_coreness(trace_);
    ASSERT_TRUE(run_trace(fs_, trace_));
  }

  std::vector<std::string> checkpoint_files() {
    std::vector<std::string> names;
    for (const std::string& name : fs_.list_dir(kDir)) {
      if (name.find("checkpoint-") == 0) names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  void corrupt(const std::string& path) {
    std::string bytes = fs_.read_file(path);
    ASSERT_GT(bytes.size(), 12U);
    bytes[bytes.size() / 2] ^= 0x01;
    fs_.write_file(path, bytes);
    fs_.sync_file(path);
  }

  util::MemStorage fs_;
  Trace trace_;
  std::vector<NodeId> expected_;
};

TEST_F(RecoveryDegenerate, FullStateRecoversToTheFinalEpoch) {
  RecoveryInfo info;
  const auto service = Service::open(ServiceOptions{}, mem_durability(fs_), &info);
  EXPECT_EQ(info.recovered_epoch, trace_.log.size());
  EXPECT_EQ(service->query()->coreness, expected_);
}

TEST_F(RecoveryDegenerate, EmptyDirectoryRefusesWithReason) {
  util::MemStorage fresh;
  fresh.make_dir(kDir);
  try {
    (void)Service::open(ServiceOptions{}, mem_durability(fresh));
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("no valid checkpoint"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(RecoveryDegenerate, MissingDirectoryRefusesWithReason) {
  util::MemStorage fresh;
  try {
    (void)Service::open(ServiceOptions{}, mem_durability(fresh));
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("does not exist"), std::string::npos)
        << e.what();
  }
}

TEST_F(RecoveryDegenerate, CheckpointOnlyDirectoryRecoversAndStartsANewWal) {
  fs_.remove_file(std::string(kDir) + "/wal.log");
  RecoveryInfo info;
  const auto service =
      Service::open(ServiceOptions{}, mem_durability(fs_), &info);
  // No WAL tail: the state is the newest checkpoint, nothing replayed.
  EXPECT_EQ(info.replayed_batches, 0U);
  EXPECT_EQ(info.recovered_epoch, info.checkpoint_epoch);
  EXPECT_EQ(service->query()->coreness,
            seq::coreness_bz(service->graph().snapshot()));
  // And the service is durable again: a fresh WAL accepts new batches.
  EXPECT_TRUE(fs_.exists(std::string(kDir) + "/wal.log"));
  service->apply(trace_.log[0].updates);
  EXPECT_EQ(service->query()->coreness,
            seq::coreness_bz(service->graph().snapshot()));
}

TEST_F(RecoveryDegenerate, WalOnlyDirectoryRefusesWithReason) {
  for (const std::string& name : checkpoint_files()) {
    fs_.remove_file(std::string(kDir) + "/" + name);
  }
  try {
    (void)Service::open(ServiceOptions{}, mem_durability(fs_));
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("wal.log is present"), std::string::npos) << what;
    EXPECT_NE(what.find("no valid checkpoint"), std::string::npos) << what;
  }
}

TEST_F(RecoveryDegenerate, CorruptNewestCheckpointFallsBackToOlderPlusWal) {
  const auto names = checkpoint_files();
  ASSERT_GE(names.size(), 2U);
  corrupt(std::string(kDir) + "/" + names.back());

  RecoveryInfo info;
  const auto service =
      Service::open(ServiceOptions{}, mem_durability(fs_), &info);
  // The corrupt file was diagnosed, the older checkpoint won, and the
  // WAL replay still reaches the exact final state.
  ASSERT_EQ(info.rejected_checkpoints.size(), 1U);
  EXPECT_NE(info.rejected_checkpoints[0].find(names.back()),
            std::string::npos);
  EXPECT_GT(info.replayed_batches, 0U);
  EXPECT_EQ(info.recovered_epoch, trace_.log.size());
  EXPECT_EQ(service->query()->coreness, expected_);
}

TEST_F(RecoveryDegenerate, CheckpointCountsBeyondThePayloadFallBackToOlder) {
  // A checkpoint whose CRC is valid but whose edge or node count claims
  // more than the payload holds is rejected with a reason (not an
  // allocation failure), and recovery falls back to the older one.
  const auto names = checkpoint_files();
  ASSERT_GE(names.size(), 2U);
  const std::string newest = std::string(kDir) + "/" + names.back();
  for (const auto& [num_nodes, num_edges] :
       {std::pair<std::uint32_t, std::uint64_t>{4, UINT64_MAX / 2},
        std::pair<std::uint32_t, std::uint64_t>{UINT32_MAX, 0}}) {
    std::string payload;
    wire::put_u64(payload, /*epoch=*/trace_.log.size());
    wire::put_u64(payload, /*wal_offset=*/0);
    wire::put_u32(payload, num_nodes);
    wire::put_u64(payload, num_edges);
    std::string file;
    wire::put_u32(file, 0x6B636B70);  // checkpoint magic
    wire::put_u32(file, util::crc32(payload));
    fs_.write_file(newest, file + payload);
    fs_.sync_file(newest);

    RecoveryInfo info;
    const auto service =
        Service::open(ServiceOptions{}, mem_durability(fs_), &info);
    ASSERT_EQ(info.rejected_checkpoints.size(), 1U) << num_nodes;
    EXPECT_NE(info.rejected_checkpoints[0].find("exceeds the payload"),
              std::string::npos)
        << info.rejected_checkpoints[0];
    EXPECT_EQ(info.recovered_epoch, trace_.log.size());
    EXPECT_EQ(service->query()->coreness, expected_);
  }
}

TEST_F(RecoveryDegenerate, AllCheckpointsCorruptRefusesListingEachReason) {
  const auto names = checkpoint_files();
  for (const std::string& name : names) {
    corrupt(std::string(kDir) + "/" + name);
  }
  try {
    (void)Service::open(ServiceOptions{}, mem_durability(fs_));
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    const std::string what = e.what();
    for (const std::string& name : names) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST_F(RecoveryDegenerate, CorruptWalTailIsTruncatedAndStateStaysExact) {
  fs_.append_file(std::string(kDir) + "/wal.log", "torn-half-record");
  fs_.sync_file(std::string(kDir) + "/wal.log");
  RecoveryInfo info;
  const auto service =
      Service::open(ServiceOptions{}, mem_durability(fs_), &info);
  EXPECT_EQ(info.torn_bytes_truncated, 16U);
  EXPECT_EQ(service->query()->coreness, expected_);
}

TEST_F(RecoveryDegenerate, DuplicateWalRecordsAreSkippedOnReplay) {
  // A retried append after a transient sync error leaves the same epoch
  // in the log twice; replay must apply it exactly once. The duplicate
  // has to sit PAST the newest checkpoint's epoch — records at or below
  // it are validated but never decoded, let alone replayed.
  const std::string wal_path = std::string(kDir) + "/wal.log";
  Wal wal = Wal::open(fs_, wal_path, {}, Wal::read(fs_, wal_path, 0));
  WalBatch next;
  next.epoch = trace_.log.size() + 1;
  next.updates = trace_.log[1].updates;
  wal.append(next);
  wal.append(next);  // the retry's second copy

  RecoveryInfo info;
  const auto service =
      Service::open(ServiceOptions{}, mem_durability(fs_), &info);
  EXPECT_EQ(info.skipped_duplicate_batches, 1U);
  EXPECT_EQ(info.replayed_batches, 1U);
  EXPECT_EQ(info.recovered_epoch, trace_.log.size() + 1);
  EXPECT_EQ(service->query()->coreness,
            seq::coreness_bz(service->graph().snapshot()));
}

TEST_F(RecoveryDegenerate, WalEpochGapRefusesWithReason) {
  const std::string wal_path = std::string(kDir) + "/wal.log";
  Wal wal = Wal::open(fs_, wal_path, {}, Wal::read(fs_, wal_path, 0));
  WalBatch future;
  future.epoch = 1000;
  wal.append(future);
  try {
    (void)Service::open(ServiceOptions{}, mem_durability(fs_));
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("epoch gap"), std::string::npos)
        << e.what();
  }
}

/// Expect Service::open over `fs` to throw util::IoError containing
/// `needle`.
void expect_refusal(util::MemStorage& fs, const std::string& needle) {
  try {
    (void)Service::open(ServiceOptions{}, mem_durability(fs));
    FAIL() << "expected util::IoError containing '" << needle << "'";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST_F(RecoveryDegenerate, CorruptEpochMarkRefusesWithReason) {
  // Overwrite the first frame's type byte: the head record no longer
  // checks out, so the log carries no epoch mark at offset 0.
  const std::string wal_path = std::string(kDir) + "/wal.log";
  std::string bytes = fs_.read_file(wal_path);
  bytes[8] = 0x01;
  fs_.write_file(wal_path, bytes);
  fs_.sync_file(wal_path);
  expect_refusal(fs_, "missing epoch mark");
}

TEST_F(RecoveryDegenerate, WalNewerThanTheCheckpointRefusesWithReason) {
  const std::string wal_path = std::string(kDir) + "/wal.log";
  (void)Wal::create(fs_, wal_path, /*epoch=*/trace_.log.size() + 10, {});
  expect_refusal(fs_, "is newer than checkpoint epoch");
}

TEST_F(RecoveryDegenerate, CorruptRecordBeforeTheCheckpointOffsetRefuses) {
  // Recovery decodes only the records past the checkpoint, but it still
  // CRC-checks the prefix: a flipped byte there ends the valid log before
  // the offset the checkpoint vouched for.
  const CheckpointLoadResult loaded = load_latest_checkpoint(fs_, kDir);
  ASSERT_TRUE(loaded.data.has_value());
  const std::uint64_t offset = loaded.data->wal_offset;
  const std::string wal_path = std::string(kDir) + "/wal.log";
  std::string bytes = fs_.read_file(wal_path);
  ASSERT_GT(offset, 40U);
  bytes[static_cast<std::size_t>(offset) - 3] ^= 0x10;
  fs_.write_file(wal_path, bytes);
  fs_.sync_file(wal_path);
  expect_refusal(fs_, "WAL lost synced data");
}

/// MemStorage that counts read_file calls on the WAL.
class WalReadCountingStorage : public util::MemStorage {
 public:
  std::string read_file(const std::string& path) override {
    if (path.ends_with("/wal.log")) ++wal_reads;
    return MemStorage::read_file(path);
  }
  int wal_reads = 0;
};

TEST(Recovery, OpenReadsTheWalExactlyOnce) {
  const Trace trace = make_trace(0, 4);
  WalReadCountingStorage fs;
  ASSERT_TRUE(run_trace(fs, trace));
  fs.wal_reads = 0;
  RecoveryInfo info;
  const auto service =
      Service::open(ServiceOptions{}, mem_durability(fs), &info);
  EXPECT_EQ(info.recovered_epoch, trace.log.size());
  EXPECT_EQ(fs.wal_reads, 1);
}

// --- seeded mutations of the state files -----------------------------------

/// A finished durable run over MemStorage: its state files, and
/// history[e], the topology after the first e batches. A recovered
/// service must sit on one of them — a table exact for some OTHER
/// topology would be a silent divergence.
struct FinishedRun {
  DurabilityOptions durability;
  std::vector<std::pair<std::string, std::string>> files;  // path, bytes
  std::vector<std::vector<graph::Edge>> history;
};

FinishedRun finish_run(const Trace& trace, util::MemStorage& fs,
                       std::uint64_t checkpoint_every) {
  FinishedRun run;
  run.durability = mem_durability(fs);
  run.durability.checkpoint_every = checkpoint_every;
  {
    Service service(trace.base, ServiceOptions{}, run.durability);
    run.history.push_back(service.graph().edges());
    for (const graph::EdgeUpdateBatch& batch : trace.log) {
      service.apply(batch.updates);
      run.history.push_back(service.graph().edges());
    }
  }
  for (const std::string& name : fs.list_dir(kDir)) {
    const std::string path = std::string(kDir) + "/" + name;
    run.files.emplace_back(path, fs.read_file(path));
  }
  return run;
}

/// One seeded mutant of `bytes`. Kind 0 flips bits in one byte of
/// [lo, hi), kind 1 cuts the file short inside [lo, hi), kind 2 rewrites
/// the u32 at one of `fields` (length or count fields) with a wild or a
/// small value.
std::string mutate(const std::string& bytes, int kind, std::size_t lo,
                   std::size_t hi, const std::vector<std::size_t>& fields,
                   util::Xoshiro256& rng) {
  const auto pick = [&](std::size_t from, std::size_t to) {
    return from + static_cast<std::size_t>(rng.next_below(to - from));
  };
  std::string mutant = bytes;
  if (kind == 0) {
    mutant[pick(lo, hi)] ^= static_cast<char>(1 + rng.next_below(255));
  } else if (kind == 1) {
    mutant.resize(pick(lo, hi));
  } else {
    const std::size_t at = fields[pick(0, fields.size())];
    const std::uint32_t len =
        rng.next_bool(0.5)
            ? static_cast<std::uint32_t>(rng.next())
            : static_cast<std::uint32_t>(rng.next_below(64));
    std::string field;
    wire::put_u32(field, len);
    mutant.replace(at, 4, field);
  }
  return mutant;
}

/// Opens a service on `run`'s files with the one at `path` replaced by
/// `mutant`. Returns the refusal when Service::open throws
/// util::IoError. Otherwise records a failure unless the recovered
/// service sits on one of the run's topologies with a table
/// bit-identical to bz, and returns nullopt.
std::optional<std::string> recover_mutant(const FinishedRun& run,
                                          const std::string& path,
                                          const std::string& mutant,
                                          RecoveryInfo& info) {
  util::MemStorage fs;
  fs.make_dir(kDir);
  for (const auto& [file, bytes] : run.files) {
    fs.write_file(file, file == path ? mutant : bytes);
    fs.sync_file(file);
  }
  DurabilityOptions durability = run.durability;
  durability.storage = &fs;
  std::unique_ptr<Service> service;
  try {
    service = Service::open(ServiceOptions{}, durability, &info);
  } catch (const util::IoError& e) {
    return std::string(e.what());
  }
  EXPECT_LT(info.recovered_epoch, run.history.size());
  if (info.recovered_epoch < run.history.size()) {
    EXPECT_EQ(service->graph().edges(), run.history[info.recovered_epoch]);
  }
  EXPECT_EQ(service->query()->coreness,
            seq::coreness_bz(service->graph().snapshot()));
  return std::nullopt;
}

TEST(Recovery, MutatedWalRecoversExactlyOrRefuses) {
  // A finished durable run whose newest checkpoint (epoch 4) leaves a WAL
  // tail (epochs 5..6), so mutations land in both the checkpointed
  // prefix, which recovery validates without decoding, and the tail.
  const Trace trace = make_trace(1, 7);
  util::MemStorage base;
  const FinishedRun run = finish_run(trace, base, /*checkpoint_every=*/4);
  const CheckpointLoadResult loaded = load_latest_checkpoint(base, kDir);
  ASSERT_TRUE(loaded.data.has_value());
  const std::uint64_t split = loaded.data->wal_offset;
  const std::string wal_path = std::string(kDir) + "/wal.log";
  const std::string wal = base.read_file(wal_path);
  ASSERT_GT(split, 0U);
  ASSERT_LT(split, wal.size());
  // Frame starts before and past the split, to aim length-field
  // corruption at real headers.
  std::vector<std::size_t> frames[2];
  for (std::size_t at = 0; at + 8 <= wal.size();) {
    frames[at >= split ? 1 : 0].push_back(at);
    std::uint32_t len = 0;
    wire::Reader header(std::string_view(wal).substr(at, 4));
    ASSERT_TRUE(header.get_u32(len));
    at += 8 + len;
  }
  ASSERT_FALSE(frames[0].empty());
  ASSERT_FALSE(frames[1].empty());

  std::uint64_t recovered = 0;
  std::uint64_t refused = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    for (int kind = 0; kind < 3; ++kind) {
      for (const bool in_tail : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " kind "
                                          << kind << " tail " << in_tail);
        util::Xoshiro256 rng(seed * 101 + static_cast<std::uint64_t>(kind));
        const std::size_t lo = in_tail ? split : 0;
        const std::size_t hi = in_tail ? wal.size() : split;
        RecoveryInfo info;
        const std::optional<std::string> refusal = recover_mutant(
            run, wal_path, mutate(wal, kind, lo, hi, frames[in_tail], rng),
            info);
        ASSERT_FALSE(::testing::Test::HasFailure());
        if (!refusal) {
          ++recovered;
          continue;
        }
        ASSERT_NE(refusal->find(kDir), std::string::npos) << *refusal;
        // Damage past the checkpoint's offset is a torn tail, never a
        // reason to give up the checkpointed state.
        ASSERT_FALSE(in_tail) << *refusal;
        ++refused;
      }
    }
  }
  // Prefix damage is refused ("WAL lost synced data" and kin), tail
  // damage recovers: both must occur.
  EXPECT_GT(recovered, 0U);
  EXPECT_GT(refused, 0U);
}

TEST(Recovery, MutatedCheckpointRecoversExactlyOrRefuses) {
  // The same finished run keeps two checkpoints (epochs 0 and 4) and the
  // WAL behind both. Mutations hit the newest one. A damaged newest
  // checkpoint must be rejected, and recovery must fall back to the older
  // one plus a longer WAL replay, never serve the changed file. The older
  // checkpoint and the WAL are intact, so no mutant is a reason to refuse.
  const Trace trace = make_trace(1, 7);
  util::MemStorage base;
  const FinishedRun run = finish_run(trace, base, /*checkpoint_every=*/4);
  const CheckpointLoadResult loaded = load_latest_checkpoint(base, kDir);
  ASSERT_TRUE(loaded.data.has_value());
  ASSERT_EQ(loaded.data->epoch, 4U);
  const std::string ckpt = base.read_file(loaded.file);
  // magic, CRC | epoch, WAL offset, node count (u32), edge count (u64)
  constexpr std::size_t kHeader = 8 + 28;
  ASSERT_GT(ckpt.size(), kHeader);
  // The order section is the file's last 4·num_nodes bytes; cut there,
  // the file is a well-formed checkpoint without one.
  ASSERT_EQ(loaded.data->order.size(), loaded.data->num_nodes);
  const std::size_t order_at = ckpt.size() - 4 * loaded.data->order.size();
  // The node count and the two halves of the edge count.
  const std::vector<std::size_t> counts = {24, 28, 32};
  struct Case {
    int kind;
    std::size_t lo, hi;
    bool reseal;  // recompute the CRC, so only the structure checks remain
  };
  // No resealed flips before the order: a flipped edge or epoch under a
  // valid CRC can be a different but well-formed state, which no check
  // can tell from a real one. A flipped order entry repeats a node or
  // leaves the range, so the decoder refuses it even resealed.
  const Case cases[] = {
      {0, 0, kHeader, false},           {0, kHeader, ckpt.size(), false},
      {1, 0, ckpt.size(), false},       {1, 8, ckpt.size(), true},
      {2, 0, 0, false},                 {2, 0, 0, true},
      {0, order_at, ckpt.size(), false}, {0, order_at, ckpt.size(), true},
      {1, order_at, ckpt.size(), true},
  };

  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    for (std::size_t c = 0; c < std::size(cases); ++c) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " case " << c);
      const Case& mutation = cases[c];
      util::Xoshiro256 rng(seed * 131 + c);
      std::string mutant =
          mutate(ckpt, mutation.kind, mutation.lo, mutation.hi, counts, rng);
      if (mutation.reseal) {
        std::string crc;
        wire::put_u32(crc, util::crc32(std::string_view(mutant).substr(8)));
        mutant.replace(4, 4, crc);
      }
      RecoveryInfo info;
      const std::optional<std::string> refusal =
          recover_mutant(run, loaded.file, mutant, info);
      ASSERT_FALSE(refusal.has_value()) << *refusal;
      ASSERT_FALSE(::testing::Test::HasFailure());
      if (mutation.reseal && mutation.kind == 1 &&
          mutant.size() == order_at) {
        // Cut exactly before the order, under a valid CRC: the same state
        // without the section, checked by the peel.
        ASSERT_EQ(info.checkpoint_epoch, 4U);
        ASSERT_FALSE(info.order_checked);
      } else if (mutant != ckpt) {
        ASSERT_EQ(info.checkpoint_epoch, 0U);
        ASSERT_EQ(info.rejected_checkpoints.size(), 1U);
        ASSERT_NE(info.rejected_checkpoints[0].find(loaded.file),
                  std::string::npos)
            << info.rejected_checkpoints[0];
      }
    }
  }
}

TEST_F(RecoveryDegenerate, FreshDurableServiceRefusesADirtyDirectory) {
  try {
    Service service(trace_.base, ServiceOptions{}, mem_durability(fs_));
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("already contains"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(RecoveryDegenerate, CheckpointWithAWrongCorenessTableIsRefused) {
  // A CRC only proves the bytes are the ones written. A table that is not
  // the coreness of its topology (here: one entry bumped, CRC valid)
  // would be served forever, so recovery refuses it, naming the file.
  CheckpointLoadResult loaded = load_latest_checkpoint(fs_, kDir);
  ASSERT_TRUE(loaded.data.has_value());
  CheckpointData bad = *loaded.data;
  ASSERT_FALSE(bad.coreness.empty());
  bad.coreness[bad.coreness.size() / 2] += 1;
  const std::string path = write_checkpoint(fs_, kDir, bad, 2);
  ASSERT_EQ(load_latest_checkpoint(fs_, kDir).file, path);
  try {
    (void)Service::open(ServiceOptions{}, mem_durability(fs_));
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("not the coreness"), std::string::npos) << what;
  }
}

// --- the stored k-order and its certificate --------------------------------

TEST_F(RecoveryDegenerate, CheckpointsWithAndWithoutAnOrderRecoverExactly) {
  // A Service's checkpoint carries its k-order, and recovery checks the
  // table with the order's certificate.
  const CheckpointLoadResult loaded = load_latest_checkpoint(fs_, kDir);
  ASSERT_TRUE(loaded.data.has_value());
  ASSERT_EQ(loaded.data->order.size(), loaded.data->num_nodes);
  {
    RecoveryInfo info;
    const auto service =
        Service::open(ServiceOptions{}, mem_durability(fs_), &info);
    EXPECT_TRUE(info.order_checked);
    EXPECT_EQ(info.checkpoint_file, loaded.file);
    EXPECT_EQ(service->query()->coreness, expected_);
  }
  // The same checkpoint without the order section (the format before
  // it, or data written with an empty order) keeps the bucket peel.
  CheckpointData orderless = *loaded.data;
  orderless.order.clear();
  ASSERT_EQ(write_checkpoint(fs_, kDir, orderless, 2), loaded.file);
  ASSERT_TRUE(load_latest_checkpoint(fs_, kDir).data->order.empty());

  RecoveryInfo info;
  const auto service =
      Service::open(ServiceOptions{}, mem_durability(fs_), &info);
  EXPECT_FALSE(info.order_checked);
  EXPECT_TRUE(info.rejected_checkpoints.empty());
  EXPECT_EQ(info.checkpoint_file, loaded.file);
  EXPECT_EQ(info.recovered_epoch, trace_.log.size());
  EXPECT_EQ(service->query()->coreness, expected_);
  // The recovered service keeps a k-order of its own: it goes on exactly
  // and writes the section into its next checkpoint.
  service->apply(trace_.log[0].updates);
  EXPECT_EQ(service->query()->coreness,
            seq::coreness_bz(service->graph().snapshot()));
  service->checkpoint();
  const CheckpointLoadResult next = load_latest_checkpoint(fs_, kDir);
  ASSERT_TRUE(next.data.has_value());
  EXPECT_EQ(next.data->order.size(), next.data->num_nodes);
}

TEST_F(RecoveryDegenerate, OrderThatIsNotAPermutationFallsBackToOlder) {
  const CheckpointLoadResult loaded = load_latest_checkpoint(fs_, kDir);
  ASSERT_TRUE(loaded.data.has_value());
  CheckpointData bad = *loaded.data;
  ASSERT_GE(bad.order.size(), 2U);
  bad.order[1] = bad.order[0];
  ASSERT_EQ(write_checkpoint(fs_, kDir, bad, 2), loaded.file);

  RecoveryInfo info;
  const auto service =
      Service::open(ServiceOptions{}, mem_durability(fs_), &info);
  ASSERT_EQ(info.rejected_checkpoints.size(), 1U);
  EXPECT_NE(info.rejected_checkpoints[0].find(loaded.file), std::string::npos);
  EXPECT_NE(info.rejected_checkpoints[0].find("not a permutation"),
            std::string::npos)
      << info.rejected_checkpoints[0];
  EXPECT_LT(info.checkpoint_epoch, loaded.data->epoch);
  EXPECT_TRUE(info.order_checked);
  EXPECT_EQ(info.recovered_epoch, trace_.log.size());
  EXPECT_EQ(service->query()->coreness, expected_);
}

/// deg+ of every node along `order`: its neighbors later in the order.
std::vector<NodeId> later_neighbors(const CheckpointData& data) {
  const Graph g = Graph::from_edges(data.num_nodes, data.edges);
  std::vector<NodeId> pos(data.num_nodes);
  for (NodeId i = 0; i < data.num_nodes; ++i) pos[data.order[i]] = i;
  std::vector<NodeId> later(data.num_nodes, 0);
  for (NodeId u = 0; u < data.num_nodes; ++u) {
    for (const NodeId v : g.neighbors(u)) later[u] += pos[v] > pos[u] ? 1 : 0;
  }
  return later;
}

TEST_F(RecoveryDegenerate, OrderCertificateRefusalsNameTheNodeAndTheCheck) {
  // Each mutant is a well-formed file under a valid CRC whose table or
  // order fails one part of the certificate. Like any table that is not
  // the coreness, it is refused naming the file, the node and the check.
  const CheckpointLoadResult loaded = load_latest_checkpoint(fs_, kDir);
  ASSERT_TRUE(loaded.data.has_value());
  const CheckpointData& good = *loaded.data;
  const std::vector<NodeId> later = later_neighbors(good);
  const std::vector<NodeId>& order = good.order;
  const NodeId n = good.num_nodes;
  ASSERT_GT(n, 2U);

  // Levels decrease along the order: the first node swapped with the
  // last (the graph has more than one level).
  CheckpointData decreasing = good;
  ASSERT_LT(good.coreness[order.front()], good.coreness[order.back()]);
  std::swap(decreasing.order.front(), decreasing.order.back());

  // A node with more later neighbors than its level: two neighbors next
  // to each other in one level swap, and the second already had as many
  // later neighbors as its level.
  CheckpointData too_many_later = good;
  const Graph g = Graph::from_edges(n, good.edges);
  bool found = false;
  for (NodeId i = 0; i + 1 < n && !found; ++i) {
    const NodeId x = order[i];
    const NodeId y = order[i + 1];
    const auto adj = g.neighbors(x);
    if (good.coreness[x] == good.coreness[y] &&
        later[y] == good.coreness[y] &&
        std::binary_search(adj.begin(), adj.end(), y)) {
      std::swap(too_many_later.order[i], too_many_later.order[i + 1]);
      found = true;
    }
  }
  ASSERT_TRUE(found);

  // A table lowered by one at the order's first node: levels still never
  // decrease, but its later neighbors now outnumber its level. Check (b)
  // bounds the table from below.
  CheckpointData lowered = good;
  ASSERT_GT(lowered.coreness[order.front()], 0U);
  lowered.coreness[order.front()] -= 1;

  // A table raised by one at the order's last node: the order still
  // fits (b), and only check (a), the bound from above, catches it.
  CheckpointData raised = good;
  raised.coreness[order.back()] += 1;

  const struct {
    const char* name;
    const CheckpointData* data;
    const char* check;
  } cases[] = {
      {"decreasing", &decreasing, "levels decrease along the order"},
      {"too many later", &too_many_later, "(check b)"},
      {"lowered", &lowered, "(check b)"},
      {"raised", &raised, "(check a)"},
  };
  const std::string original = fs_.read_file(loaded.file);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_EQ(write_checkpoint(fs_, kDir, *c.data, 2), loaded.file);
    try {
      (void)Service::open(ServiceOptions{}, mem_durability(fs_));
      ADD_FAILURE() << "expected util::IoError";
    } catch (const util::IoError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(loaded.file), std::string::npos) << what;
      EXPECT_NE(what.find("not the coreness"), std::string::npos) << what;
      EXPECT_NE(what.find("node "), std::string::npos) << what;
      EXPECT_NE(what.find(c.check), std::string::npos) << what;
    }
    fs_.write_file(loaded.file, original);
    fs_.sync_file(loaded.file);
  }
}

TEST_F(RecoveryDegenerate, NonCanonicalEdgeListsAreRefusedAndFallBack) {
  // The adjacency is built from the checkpoint's edge list on the
  // promise that it is canonical (u < v, strictly increasing), so the
  // decoder refuses any list that is not, even under a valid CRC, and
  // recovery falls back to the older checkpoint plus the WAL.
  const CheckpointLoadResult loaded = load_latest_checkpoint(fs_, kDir);
  ASSERT_TRUE(loaded.data.has_value());
  const std::string original = fs_.read_file(loaded.file);
  const std::vector<graph::Edge>& edges = loaded.data->edges;
  ASSERT_GE(edges.size(), 4U);
  const std::size_t k = edges.size() / 2;
  std::vector<std::vector<graph::Edge>> mutants(4, edges);
  std::swap(mutants[0][k], mutants[0][k + 1]);               // out of order
  mutants[1].insert(mutants[1].begin() + static_cast<std::ptrdiff_t>(k),
                    edges[k]);                                // duplicate
  std::swap(mutants[2][k].u, mutants[2][k].v);               // u > v
  mutants[3][k].v = mutants[3][k].u;                         // self-loop
  for (std::size_t m = 0; m < mutants.size(); ++m) {
    SCOPED_TRACE(::testing::Message() << "mutant " << m);
    CheckpointData bad = *loaded.data;
    bad.edges = mutants[m];
    ASSERT_EQ(write_checkpoint(fs_, kDir, bad, 2), loaded.file);

    RecoveryInfo info;
    const auto service =
        Service::open(ServiceOptions{}, mem_durability(fs_), &info);
    ASSERT_EQ(info.rejected_checkpoints.size(), 1U);
    EXPECT_NE(info.rejected_checkpoints[0].find(loaded.file),
              std::string::npos);
    EXPECT_NE(info.rejected_checkpoints[0].find("canonical order"),
              std::string::npos)
        << info.rejected_checkpoints[0];
    EXPECT_LT(info.checkpoint_epoch, loaded.data->epoch);
    EXPECT_GT(info.replayed_batches, 0U);
    EXPECT_EQ(info.recovered_epoch, trace_.log.size());
    EXPECT_EQ(service->query()->coreness, expected_);
    EXPECT_EQ(service->query()->coreness,
              seq::coreness_bz(service->graph().snapshot()));

    fs_.write_file(loaded.file, original);
    fs_.sync_file(loaded.file);
  }
}

TEST_F(RecoveryDegenerate, PhaseTimesFitInTheWallTimeOfOpen) {
  // Fall back to the older checkpoint so every phase has work to time.
  corrupt(std::string(kDir) + "/" + checkpoint_files().back());
  RecoveryInfo info;
  const auto start = util::SteadyClock::now();
  const auto service =
      Service::open(ServiceOptions{}, mem_durability(fs_), &info);
  const double wall_ms = util::ms_between(start, util::SteadyClock::now());
  ASSERT_GT(info.replayed_batches, 0U);
  EXPECT_GE(info.load_ms, 0.0);
  EXPECT_GE(info.scan_ms, 0.0);
  EXPECT_GE(info.build_ms, 0.0);
  EXPECT_GE(info.warm_ms, 0.0);
  EXPECT_GE(info.replay_ms, 0.0);
  EXPECT_LE(info.load_ms + info.scan_ms + info.build_ms + info.warm_ms +
                info.replay_ms,
            wall_ms);
}

// --- the warm-restart argument, quantified ----------------------------------

TEST(Recovery, WarmRestartPaysFarFewerRelaxationsThanFromScratch) {
  const Graph g = gen::barabasi_albert(400, 4, 9);
  util::Xoshiro256 rng(21);
  std::vector<graph::EdgeUpdateBatch> log;
  for (int b = 0; b < 4; ++b) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < 5; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      batch.push_back(
          {rng.next_bool(0.5) ? EdgeOp::kInsert : EdgeOp::kRemove, u, v});
    }
    log.push_back({.updates = std::move(batch)});
  }

  // The k-order repairs every edge and nothing relaxes, so the replay's
  // work is its fallen levels plus its insertion and removal passes'
  // visits: 112 here, against 400 nodes.
  util::MemStorage fs;
  DurabilityOptions durability;
  durability.dir = kDir;
  durability.storage = &fs;
  durability.checkpoint_every = 100;  // only the initial checkpoint: the
                                      // whole trace replays from the WAL
  {
    Service service(g, ServiceOptions{}, durability);
    for (const graph::EdgeUpdateBatch& batch : log) {
      service.apply(batch.updates);
    }
  }

  fs.crash();
  RecoveryInfo info;
  const auto recovered = Service::open(ServiceOptions{}, durability, &info);
  EXPECT_EQ(info.replayed_batches, log.size());
  // The headline number: recovery repairs only the WAL tail's
  // neighborhoods, not the whole graph.
  EXPECT_EQ(info.replay_relaxations, 0U);
  const std::uint64_t replay_work = info.replay_dropped + info.replay_visited;
  EXPECT_GT(replay_work, 0U);
  EXPECT_LT(replay_work, g.num_nodes() * 2 / 7);
  EXPECT_EQ(recovered->query()->coreness,
            seq::coreness_bz(recovered->graph().snapshot()));
}

TEST(Recovery, CurrentCheckpointMeansZeroReplay) {
  const Trace trace = make_trace(2, 1);
  util::MemStorage fs;
  {
    Service service(trace.base, ServiceOptions{}, mem_durability(fs));
    for (std::size_t b = 0; b < trace.log.size(); ++b) {
      service.apply(trace.log[b].updates);
    }
    service.checkpoint();  // pin the final epoch
  }
  fs.crash();
  RecoveryInfo info;
  const auto service =
      Service::open(ServiceOptions{}, mem_durability(fs), &info);
  EXPECT_EQ(info.replayed_batches, 0U);
  EXPECT_EQ(info.replay_relaxations, 0U);
  EXPECT_EQ(info.recovered_epoch, trace.log.size());
  EXPECT_EQ(service->query()->coreness, expected_final_coreness(trace));
}


// --- the tail replayed as one net batch -------------------------------------

/// `count` distinct edges absent from `g`, u < v.
std::vector<graph::Edge> absent_edges(const Graph& g, std::size_t count,
                                      util::Xoshiro256& rng) {
  std::vector<graph::Edge> out;
  while (out.size() < count) {
    auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    const graph::Edge e{u, v};
    const auto nbrs = g.neighbors(u);
    if (std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end() ||
        std::find(out.begin(), out.end(), e) != out.end()) {
      continue;
    }
    out.push_back(e);
  }
  return out;
}

std::vector<EdgeUpdate> updates_of(EdgeOp op,
                                   const std::vector<graph::Edge>& edges) {
  std::vector<EdgeUpdate> out;
  for (const graph::Edge& e : edges) out.push_back({op, e.u, e.v});
  return out;
}

TEST(Recovery, OneNetReplayMatchesThePreCrashService) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const Graph base = gen::barabasi_albert(120, 3, seed);
    const NodeId n = base.num_nodes();
    util::Xoshiro256 rng(seed * 977);
    const std::vector<graph::Edge> added = absent_edges(base, 16, rng);
    std::vector<graph::Edge> dropped;  // present base edges
    for (NodeId u = 0; u < n && dropped.size() < 10; u += 7) {
      for (const NodeId v : base.neighbors(u)) {
        if (u < v) {
          dropped.push_back({u, v});
          break;
        }
      }
    }
    const auto first_half = std::vector<graph::Edge>(added.begin(),
                                                     added.begin() + 8);
    const auto second_half = std::vector<graph::Edge>(added.begin() + 8,
                                                      added.end());
    auto random_mix = [&](std::size_t count) {
      std::vector<EdgeUpdate> out;
      for (std::size_t i = 0; i < count; ++i) {
        out.push_back({rng.next_bool(0.5) ? EdgeOp::kInsert : EdgeOp::kRemove,
                       static_cast<NodeId>(rng.next_below(n)),
                       static_cast<NodeId>(rng.next_below(n))});
      }
      return out;
    };

    // The tail: inserts later removed, removed edges re-added, churn
    // within a batch, self-loops, out-of-range ids and duplicates.
    std::vector<std::vector<EdgeUpdate>> tail;
    tail.push_back(updates_of(EdgeOp::kInsert, added));
    tail.back().push_back({EdgeOp::kInsert, 5, 5});
    tail.back().push_back({EdgeOp::kInsert, 0, n + 3});
    tail.push_back(updates_of(EdgeOp::kRemove, dropped));
    for (const EdgeUpdate& u : updates_of(EdgeOp::kRemove, first_half)) {
      tail.back().push_back(u);
    }
    tail.push_back(updates_of(EdgeOp::kInsert, dropped));
    tail.back().push_back({EdgeOp::kInsert, added[0].u, added[0].v});
    tail.back().push_back({EdgeOp::kRemove, added[0].u, added[0].v});
    tail.push_back(updates_of(EdgeOp::kRemove, second_half));  // retried
    for (const EdgeUpdate& u : random_mix(12)) tail.back().push_back(u);
    tail.push_back(random_mix(20));
    tail.back().push_back(tail.back().front());  // a duplicate update
    tail.push_back(random_mix(10));
    tail.back().push_back({EdgeOp::kRemove, 7, 7});
    tail.back().push_back({EdgeOp::kRemove, n, 1});
    tail.push_back(updates_of(EdgeOp::kInsert, first_half));
    constexpr std::size_t kRetried = 3;

    util::MemStorage fs;
    DurabilityOptions durability = mem_durability(fs);
    durability.checkpoint_every = 1000;
    std::shared_ptr<const Snapshot> before;
    {
      Service service(base, ServiceOptions{}, durability);
      service.apply(random_mix(10));
      service.apply(random_mix(10));
      service.checkpoint();  // the tail starts here
      for (std::size_t b = 0; b < tail.size(); ++b) {
        if (b == kRetried) {
          // The append lands but its sync fails: the apply is refused
          // before any mutation, and the retry appends the record again.
          fs.set_fault({FaultPlan::Kind::kFail, fs.op_count() + 1});
          EXPECT_THROW(service.apply(tail[b]), util::IoError);
        }
        service.apply(tail[b]);
      }
      before = service.query();
    }
    fs.crash();

    RecoveryInfo info;
    const auto recovered = Service::open(ServiceOptions{}, durability, &info);
    EXPECT_EQ(info.checkpoint_epoch, 2U);
    EXPECT_EQ(info.replayed_batches, tail.size());
    EXPECT_EQ(info.skipped_duplicate_batches, 1U);
    const auto after = recovered->query();
    EXPECT_EQ(after->epoch, before->epoch);
    EXPECT_EQ(info.recovered_epoch, before->epoch);
    EXPECT_EQ(after->num_edges, before->num_edges);
    EXPECT_EQ(after->coreness, before->coreness);
    EXPECT_EQ(after->coreness, seq::coreness_bz(recovered->graph().snapshot()));
    // And it goes on as the pre-crash service would have.
    const std::vector<EdgeUpdate> next = random_mix(16);
    const ApplyResult r = recovered->apply(next);
    EXPECT_EQ(r.epoch, before->epoch + 1);
    EXPECT_EQ(recovered->query()->coreness,
              seq::coreness_bz(recovered->graph().snapshot()));
  }
}

TEST(Recovery, OneNetReplayPaysLessThanThePerBatchRepairs) {
  // A churn-burst-like excursion: each batch inserts a fresh set of
  // edges and removes the set the batch before inserted, so four batches
  // net out to one set in and one set out. The per-batch repairs pay for
  // all eight sets; the one net repair pays for two. The k-order repairs
  // every edge and nothing relaxes, so the work is the fallen nodes plus
  // the insertion and removal passes' visits.
  const Graph base = gen::barabasi_albert(1500, 4, 3);
  util::Xoshiro256 rng(17);
  const std::vector<graph::Edge> pool = absent_edges(base, 5 * 96, rng);
  auto set = [&](std::size_t i) {
    return std::vector<graph::Edge>(pool.begin() + static_cast<std::ptrdiff_t>(96 * i),
                                    pool.begin() + static_cast<std::ptrdiff_t>(96 * (i + 1)));
  };
  const auto work = [](const RepairStats& r) {
    return r.dropped + r.region_visited + r.removal_visited;
  };

  util::MemStorage fs;
  DurabilityOptions durability = mem_durability(fs);
  durability.checkpoint_every = 1000;
  std::uint64_t per_batch_work = 0;
  std::uint64_t per_batch_relaxations = 0;
  std::vector<NodeId> before;
  {
    Service service(base, ServiceOptions{}, durability);
    service.apply(updates_of(EdgeOp::kInsert, set(0)));
    service.checkpoint();
    for (std::size_t b = 1; b <= 4; ++b) {
      std::vector<EdgeUpdate> batch = updates_of(EdgeOp::kInsert, set(b));
      for (const EdgeUpdate& u : updates_of(EdgeOp::kRemove, set(b - 1))) {
        batch.push_back(u);
      }
      const RepairStats repair = service.apply(batch).repair;
      per_batch_work += work(repair);
      per_batch_relaxations += repair.relaxations;
    }
    before = service.query()->coreness;
  }
  fs.crash();

  RecoveryInfo info;
  const auto recovered = Service::open(ServiceOptions{}, durability, &info);
  EXPECT_EQ(info.replayed_batches, 4U);
  EXPECT_EQ(recovered->query()->coreness, before);
  EXPECT_EQ(per_batch_relaxations, 0U);
  EXPECT_EQ(info.replay_relaxations, 0U);
  const std::uint64_t replay_work = info.replay_dropped + info.replay_visited;
  EXPECT_GT(replay_work, 0U);
  EXPECT_LT(replay_work, per_batch_work);
}

}  // namespace
}  // namespace kcore::live
