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
// tail, duplicates, epoch gaps), and the warm-restart cost pin
// (recovery relaxations << from-scratch convergence).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
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

ServiceOptions fast_options() {
  ServiceOptions options;
  options.threads = 1;  // the matrix runs hundreds of services
  return options;
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
    Service service(trace.base, fast_options(), mem_durability(fs));
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
                Service::open(fast_options(), mem_durability(fs), &info);
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
          // ... the warm restart pays zero up-front relaxations, ...
          ASSERT_EQ(recovered->initial_stats().relaxations, 0U);
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
      service = std::make_unique<Service>(trace.base, fast_options(),
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
        Service::open(fast_options(), mem_durability(fs), &info);
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
  const auto service = Service::open(fast_options(), mem_durability(fs_), &info);
  EXPECT_EQ(info.recovered_epoch, trace_.log.size());
  EXPECT_EQ(service->query()->coreness, expected_);
}

TEST_F(RecoveryDegenerate, EmptyDirectoryRefusesWithReason) {
  util::MemStorage fresh;
  fresh.make_dir(kDir);
  try {
    (void)Service::open(fast_options(), mem_durability(fresh));
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
    (void)Service::open(fast_options(), mem_durability(fresh));
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
      Service::open(fast_options(), mem_durability(fs_), &info);
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
    (void)Service::open(fast_options(), mem_durability(fs_));
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
      Service::open(fast_options(), mem_durability(fs_), &info);
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
        Service::open(fast_options(), mem_durability(fs_), &info);
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
    (void)Service::open(fast_options(), mem_durability(fs_));
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
      Service::open(fast_options(), mem_durability(fs_), &info);
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
      Service::open(fast_options(), mem_durability(fs_), &info);
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
    (void)Service::open(fast_options(), mem_durability(fs_));
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
    (void)Service::open(fast_options(), mem_durability(fs));
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
      Service::open(fast_options(), mem_durability(fs), &info);
  EXPECT_EQ(info.recovered_epoch, trace.log.size());
  EXPECT_EQ(fs.wal_reads, 1);
}

// --- seeded WAL mutations ---------------------------------------------------

TEST(Recovery, MutatedWalRecoversExactlyOrRefuses) {
  // A finished durable run whose newest checkpoint (epoch 4) leaves a WAL
  // tail (epochs 5..6), so mutations land in both the checkpointed
  // prefix, which recovery validates without decoding, and the tail.
  const Trace trace = make_trace(1, 7);
  util::MemStorage base;
  DurabilityOptions durability = mem_durability(base);
  durability.checkpoint_every = 4;
  // history[e]: the topology after the first e batches. A recovered
  // service must sit on one of them — a table exact for some OTHER
  // topology would be a silent divergence.
  std::vector<std::vector<graph::Edge>> history;
  {
    Service service(trace.base, fast_options(), durability);
    history.push_back(service.graph().edges());
    for (const graph::EdgeUpdateBatch& batch : trace.log) {
      service.apply(batch.updates);
      history.push_back(service.graph().edges());
    }
  }
  const CheckpointLoadResult loaded = load_latest_checkpoint(base, kDir);
  ASSERT_TRUE(loaded.data.has_value());
  const std::uint64_t split = loaded.data->wal_offset;
  const std::string wal_path = std::string(kDir) + "/wal.log";
  const std::string wal = base.read_file(wal_path);
  ASSERT_GT(split, 0U);
  ASSERT_LT(split, wal.size());
  std::vector<std::pair<std::string, std::string>> files;
  for (const std::string& name : base.list_dir(kDir)) {
    const std::string path = std::string(kDir) + "/" + name;
    files.emplace_back(path, base.read_file(path));
  }
  // Frame starts, to aim length-field corruption at real headers.
  std::vector<std::size_t> frames;
  for (std::size_t at = 0; at + 8 <= wal.size();) {
    frames.push_back(at);
    std::uint32_t len = 0;
    wire::Reader header(std::string_view(wal).substr(at, 4));
    ASSERT_TRUE(header.get_u32(len));
    at += 8 + len;
  }

  std::uint64_t recovered = 0;
  std::uint64_t refused = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    for (int kind = 0; kind < 3; ++kind) {
      for (const bool in_tail : {false, true}) {
        util::Xoshiro256 rng(seed * 101 + static_cast<std::uint64_t>(kind));
        const std::size_t lo = in_tail ? split : 0;
        const std::size_t hi = in_tail ? wal.size() : split;
        const auto pick = [&](std::size_t from, std::size_t to) {
          return from + static_cast<std::size_t>(rng.next_below(to - from));
        };
        std::string mutant = wal;
        if (kind == 0) {  // flip bits in one byte
          mutant[pick(lo, hi)] ^= static_cast<char>(1 + rng.next_below(255));
        } else if (kind == 1) {  // cut the log short
          mutant.resize(pick(lo, hi));
        } else {  // rewrite one frame's length field
          std::vector<std::size_t> region;
          for (const std::size_t f : frames) {
            if (f >= lo && f < hi) region.push_back(f);
          }
          ASSERT_FALSE(region.empty());
          const std::size_t at = region[pick(0, region.size())];
          const std::uint32_t len =
              rng.next_bool(0.5) ? static_cast<std::uint32_t>(rng.next())
                                 : static_cast<std::uint32_t>(
                                       rng.next_below(64));
          std::string field;
          wire::put_u32(field, len);
          mutant.replace(at, 4, field);
        }

        util::MemStorage fs;
        fs.make_dir(kDir);
        for (const auto& [path, bytes] : files) {
          fs.write_file(path, path == wal_path ? mutant : bytes);
          fs.sync_file(path);
        }
        DurabilityOptions on_mutant = durability;
        on_mutant.storage = &fs;
        RecoveryInfo info;
        std::unique_ptr<Service> service;
        try {
          service = Service::open(fast_options(), on_mutant, &info);
        } catch (const util::IoError& e) {
          ASSERT_NE(std::string(e.what()).find(kDir), std::string::npos)
              << e.what();
          // Damage past the checkpoint's offset is a torn tail, never a
          // reason to give up the checkpointed state.
          ASSERT_FALSE(in_tail) << "seed " << seed << " kind " << kind
                                << ": " << e.what();
          ++refused;
          continue;
        }
        ++recovered;
        ASSERT_LE(info.recovered_epoch, trace.log.size())
            << "seed " << seed << " kind " << kind << " tail " << in_tail;
        ASSERT_EQ(service->graph().edges(), history[info.recovered_epoch])
            << "seed " << seed << " kind " << kind << " tail " << in_tail;
        ASSERT_EQ(service->query()->coreness,
                  seq::coreness_bz(service->graph().snapshot()))
            << "seed " << seed << " kind " << kind << " tail " << in_tail;
      }
    }
  }
  // Prefix damage is refused ("WAL lost synced data" and kin), tail
  // damage recovers: both must occur.
  EXPECT_GT(recovered, 0U);
  EXPECT_GT(refused, 0U);
}

TEST_F(RecoveryDegenerate, FreshDurableServiceRefusesADirtyDirectory) {
  try {
    Service service(trace_.base, fast_options(), mem_durability(fs_));
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
    (void)Service::open(fast_options(), mem_durability(fs_));
    FAIL() << "expected util::IoError";
  } catch (const util::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("not the coreness"), std::string::npos) << what;
  }
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

  util::MemStorage fs;
  DurabilityOptions durability;
  durability.dir = kDir;
  durability.storage = &fs;
  durability.checkpoint_every = 100;  // only the initial checkpoint: the
                                      // whole trace replays from the WAL
  std::uint64_t cold_relaxations = 0;
  {
    Service service(g, fast_options(), durability);
    cold_relaxations = service.initial_stats().relaxations;
    for (const graph::EdgeUpdateBatch& batch : log) {
      service.apply(batch.updates);
    }
  }
  ASSERT_GE(cold_relaxations, g.num_nodes());

  fs.crash();
  RecoveryInfo info;
  const auto recovered = Service::open(fast_options(), durability, &info);
  EXPECT_EQ(info.replayed_batches, log.size());
  // The headline number: recovery re-relaxes only the WAL tail's
  // neighborhoods, not the whole graph.
  EXPECT_LT(info.replay_relaxations, cold_relaxations / 4);
  EXPECT_EQ(recovered->initial_stats().relaxations, 0U);
  EXPECT_EQ(recovered->query()->coreness,
            seq::coreness_bz(recovered->graph().snapshot()));
}

TEST(Recovery, CurrentCheckpointMeansZeroReplay) {
  const Trace trace = make_trace(2, 1);
  util::MemStorage fs;
  {
    Service service(trace.base, fast_options(), mem_durability(fs));
    for (std::size_t b = 0; b < trace.log.size(); ++b) {
      service.apply(trace.log[b].updates);
    }
    service.checkpoint();  // pin the final epoch
  }
  fs.crash();
  RecoveryInfo info;
  const auto service =
      Service::open(fast_options(), mem_durability(fs), &info);
  EXPECT_EQ(info.replayed_batches, 0U);
  EXPECT_EQ(info.replay_relaxations, 0U);
  EXPECT_EQ(info.recovered_epoch, trace.log.size());
  EXPECT_EQ(service->query()->coreness, expected_final_coreness(trace));
}

}  // namespace
}  // namespace kcore::live
