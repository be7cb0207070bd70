// The WAL's framing contract: every record either round-trips exactly
// or is detected (length/CRC) and truncated as a torn tail; the fsync
// policies map onto the MemStorage durability model precisely (every-
// batch loses nothing, none loses the unsynced suffix); the leading
// epoch mark pins the base state a log belongs to.
#include "live/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "live/wire.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/storage.h"

namespace kcore::live {
namespace {

using graph::EdgeOp;
using graph::EdgeUpdate;

WalBatch make_batch(std::uint64_t epoch) {
  WalBatch b;
  b.epoch = epoch;
  b.updates = {{EdgeOp::kInsert, 1, 2},
               {EdgeOp::kRemove, 3, 4},
               {EdgeOp::kInsert, 5, 0}};
  return b;
}

TEST(Wal, RoundTripsBatchesWithEpochMark) {
  util::MemStorage fs;
  Wal wal = Wal::create(fs, "wal.log", /*epoch=*/7, {});
  wal.append(make_batch(8));
  WalBatch empty;
  empty.epoch = 9;  // an empty batch is a legal record
  wal.append(empty);

  const WalReadResult scan = Wal::read(fs, "wal.log", 0);
  EXPECT_TRUE(scan.has_start_mark);
  EXPECT_EQ(scan.start_epoch, 7U);
  ASSERT_EQ(scan.batches.size(), 2U);
  EXPECT_EQ(scan.batches[0].epoch, 8U);
  EXPECT_EQ(scan.batches[0].updates, make_batch(8).updates);
  EXPECT_EQ(scan.batches[1].epoch, 9U);
  EXPECT_TRUE(scan.batches[1].updates.empty());
  EXPECT_EQ(scan.valid_end, wal.end_offset());
  EXPECT_EQ(scan.torn_bytes, 0U);
}

TEST(Wal, ReadFromOffsetSkipsThePrefix) {
  util::MemStorage fs;
  Wal wal = Wal::create(fs, "wal.log", 0, {});
  wal.append(make_batch(1));
  const std::uint64_t mid = wal.end_offset();
  wal.append(make_batch(2));

  const WalReadResult scan = Wal::read(fs, "wal.log", mid);
  EXPECT_FALSE(scan.has_start_mark);  // the mark sits at offset 0
  ASSERT_EQ(scan.batches.size(), 1U);
  EXPECT_EQ(scan.batches[0].epoch, 2U);
}

TEST(Wal, OffsetBeyondEndIsAnInconsistencyError) {
  util::MemStorage fs;
  Wal wal = Wal::create(fs, "wal.log", 0, {});
  EXPECT_THROW(Wal::read(fs, "wal.log", wal.end_offset() + 1),
               util::IoError);
}

TEST(Wal, GarbageTailIsDetectedAndTruncatedOnOpen) {
  util::MemStorage fs;
  std::uint64_t good_end = 0;
  {
    Wal wal = Wal::create(fs, "wal.log", 0, {});
    wal.append(make_batch(1));
    good_end = wal.end_offset();
  }
  fs.append_file("wal.log", "garbage-not-a-frame");
  fs.sync_file("wal.log");

  std::uint64_t torn = 0;
  Wal reopened = Wal::open(fs, "wal.log", {}, &torn);
  EXPECT_EQ(torn, 19U);
  EXPECT_EQ(reopened.end_offset(), good_end);
  // The truncation is synced: the garbage is gone even after a crash.
  fs.crash();
  const WalReadResult scan = Wal::read(fs, "wal.log", 0);
  EXPECT_EQ(scan.torn_bytes, 0U);
  ASSERT_EQ(scan.batches.size(), 1U);
  // And appends land cleanly after the repaired tail.
  reopened.append(make_batch(2));
  EXPECT_EQ(Wal::read(fs, "wal.log", 0).batches.size(), 2U);
}

TEST(Wal, HalfARecordIsATornTail) {
  util::MemStorage fs;
  Wal wal = Wal::create(fs, "wal.log", 0, {});
  const std::uint64_t good_end = wal.end_offset();
  wal.append(make_batch(1));
  // Chop the last record in half — what a power cut mid-write leaves.
  const std::uint64_t cut =
      good_end + (wal.end_offset() - good_end) / 2;
  fs.truncate_file("wal.log", cut);
  fs.sync_file("wal.log");

  const WalReadResult scan = Wal::read(fs, "wal.log", 0);
  EXPECT_EQ(scan.valid_end, good_end);
  EXPECT_EQ(scan.torn_bytes, cut - good_end);
  EXPECT_TRUE(scan.batches.empty());
}

TEST(Wal, CorruptedByteFailsTheCrc) {
  util::MemStorage fs;
  Wal wal = Wal::create(fs, "wal.log", 0, {});
  const std::uint64_t good_end = wal.end_offset();
  wal.append(make_batch(1));
  std::string content = fs.read_file("wal.log");
  content[content.size() - 1] ^= 0x40;  // flip one payload bit
  fs.write_file("wal.log", content);
  fs.sync_file("wal.log");

  const WalReadResult scan = Wal::read(fs, "wal.log", 0);
  EXPECT_EQ(scan.valid_end, good_end);
  EXPECT_TRUE(scan.batches.empty());
  EXPECT_GT(scan.torn_bytes, 0U);
}

/// A batch record framed with a VALID length and CRC around a body that
/// claims `count` updates but carries one, whose op byte is `op`.
std::string forged_batch_frame(std::uint32_t count, std::uint8_t op) {
  std::string payload;
  wire::put_u8(payload, 1);  // batch record
  wire::put_u64(payload, /*epoch=*/1);
  wire::put_u32(payload, count);
  wire::put_u8(payload, op);
  wire::put_u32(payload, 1);
  wire::put_u32(payload, 2);
  std::string frame;
  wire::put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  wire::put_u32(frame, util::crc32(payload));
  return frame + payload;
}

TEST(Wal, ForgedRecordsWithValidCrcAreATornTail) {
  // The CRC only proves the bytes are the ones written; a count the
  // payload cannot hold or an op byte outside EdgeOp is still corruption.
  // The scan must stop at such a record, not allocate for it.
  for (const auto& [count, op] :
       {std::pair<std::uint32_t, std::uint8_t>{UINT32_MAX, 0},
        std::pair<std::uint32_t, std::uint8_t>{2, 0},
        std::pair<std::uint32_t, std::uint8_t>{1, 2},
        std::pair<std::uint32_t, std::uint8_t>{1, 0xFF}}) {
    util::MemStorage fs;
    Wal wal = Wal::create(fs, "wal.log", 0, {});
    wal.append(make_batch(1));
    const std::uint64_t good_end = wal.end_offset();
    const std::string forged = forged_batch_frame(count, op);
    fs.append_file("wal.log", forged);
    fs.sync_file("wal.log");

    const WalReadResult scan = Wal::read(fs, "wal.log", 0);
    ASSERT_EQ(scan.batches.size(), 1U) << count << "/" << int{op};
    EXPECT_EQ(scan.valid_end, good_end);
    EXPECT_EQ(scan.torn_bytes, forged.size());
    std::uint64_t torn = 0;
    (void)Wal::open(fs, "wal.log", {}, &torn);
    EXPECT_EQ(torn, forged.size());
    EXPECT_EQ(fs.file_size("wal.log"), good_end);
  }
  // The same frame with an honest count and op decodes.
  util::MemStorage fs;
  (void)Wal::create(fs, "wal.log", 0, {});
  fs.append_file("wal.log", forged_batch_frame(1, 1));
  const WalReadResult scan = Wal::read(fs, "wal.log", 0);
  ASSERT_EQ(scan.batches.size(), 1U);
  EXPECT_EQ(scan.batches[0].updates,
            (std::vector<EdgeUpdate>{{EdgeOp::kRemove, 1, 2}}));
}

// --- fsync policies against the durability model ----------------------------

TEST(Wal, EveryBatchPolicySurvivesACrashWithNothingLost) {
  util::MemStorage fs;
  WalOptions options;
  options.fsync = FsyncPolicy::kEveryBatch;
  Wal wal = Wal::create(fs, "wal.log", 0, options);
  wal.append(make_batch(1));
  wal.append(make_batch(2));
  fs.crash();
  EXPECT_EQ(Wal::read(fs, "wal.log", 0).batches.size(), 2U);
}

TEST(Wal, NonePolicyLosesTheUnsyncedSuffix) {
  util::MemStorage fs;
  WalOptions options;
  options.fsync = FsyncPolicy::kNone;
  Wal wal = Wal::create(fs, "wal.log", 0, options);  // create() still syncs
  wal.append(make_batch(1));
  wal.append(make_batch(2));
  fs.crash();
  EXPECT_TRUE(Wal::read(fs, "wal.log", 0).batches.empty());
}

TEST(Wal, EveryNPolicyBoundsTheLossWindow) {
  util::MemStorage fs;
  WalOptions options;
  options.fsync = FsyncPolicy::kEveryN;
  options.fsync_every = 2;
  Wal wal = Wal::create(fs, "wal.log", 0, options);
  wal.append(make_batch(1));  // unsynced (1 < 2)
  wal.append(make_batch(2));  // triggers the periodic sync
  wal.append(make_batch(3));  // unsynced again
  fs.crash();
  EXPECT_EQ(Wal::read(fs, "wal.log", 0).batches.size(), 2U);
}

TEST(Wal, ExplicitSyncIsACheckpointBarrier) {
  util::MemStorage fs;
  WalOptions options;
  options.fsync = FsyncPolicy::kNone;
  Wal wal = Wal::create(fs, "wal.log", 0, options);
  wal.append(make_batch(1));
  wal.sync();
  fs.crash();
  EXPECT_EQ(Wal::read(fs, "wal.log", 0).batches.size(), 1U);
}

// --- policy spellings -------------------------------------------------------

TEST(Wal, FsyncPolicySpellingsRoundTrip) {
  for (const FsyncPolicy policy :
       {FsyncPolicy::kEveryBatch, FsyncPolicy::kEveryN, FsyncPolicy::kNone}) {
    EXPECT_EQ(parse_fsync_policy(to_string(policy)), policy);
  }
  EXPECT_THROW(parse_fsync_policy("sometimes"), util::IoError);
}

}  // namespace
}  // namespace kcore::live
