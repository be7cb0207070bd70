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

#include "live/checkpoint.h"
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

  const WalReadResult opened = Wal::read(fs, "wal.log", 0);
  Wal reopened = Wal::open(fs, "wal.log", {}, opened);
  EXPECT_EQ(opened.torn_bytes, 19U);
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
    // scan() validates the same way, decoding nothing at or below epoch 1.
    const WalReadResult tail = Wal::scan(fs, "wal.log", /*after_epoch=*/1);
    EXPECT_TRUE(tail.batches.empty());
    EXPECT_EQ(tail.valid_end, good_end);
    EXPECT_EQ(tail.torn_bytes, forged.size());
    (void)Wal::open(fs, "wal.log", {}, tail);
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

// --- recovery's single scan --------------------------------------------------

TEST(Wal, ScanDecodesOnlyTheBatchesPastItsEpoch) {
  util::MemStorage fs;
  Wal wal = Wal::create(fs, "wal.log", /*epoch=*/0, {});
  for (std::uint64_t e = 1; e <= 5; ++e) wal.append(make_batch(e));
  fs.append_file("wal.log", "torn");

  const WalReadResult all = Wal::read(fs, "wal.log", 0);
  const WalReadResult tail = Wal::scan(fs, "wal.log", /*after_epoch=*/3);
  ASSERT_EQ(tail.batches.size(), 2U);
  EXPECT_EQ(tail.batches[0].epoch, 4U);
  EXPECT_EQ(tail.batches[1].epoch, 5U);
  EXPECT_EQ(tail.batches[1].updates, make_batch(5).updates);
  // Everything but the decoded set matches a full read.
  EXPECT_EQ(tail.valid_end, all.valid_end);
  EXPECT_EQ(tail.torn_bytes, all.torn_bytes);
  EXPECT_EQ(tail.torn_bytes, 4U);
  EXPECT_TRUE(tail.has_start_mark);
  EXPECT_EQ(tail.start_epoch, 0U);
  EXPECT_EQ(Wal::scan(fs, "wal.log", 0).batches.size(), all.batches.size());
}

TEST(Wal, ScanStillChecksTheCrcOfThePrefixItSkips) {
  util::MemStorage fs;
  Wal wal = Wal::create(fs, "wal.log", 0, {});
  const std::uint64_t mark_end = wal.end_offset();
  wal.append(make_batch(1));
  wal.append(make_batch(2));
  std::string content = fs.read_file("wal.log");
  content[mark_end + 12] ^= 0x01;  // inside batch 1's payload
  fs.write_file("wal.log", content);

  // Batch 2 is past the scan's epoch but sits behind the corrupt record:
  // the valid log ends before batch 1, exactly as a full read says.
  const WalReadResult tail = Wal::scan(fs, "wal.log", /*after_epoch=*/1);
  EXPECT_TRUE(tail.batches.empty());
  EXPECT_EQ(tail.valid_end, mark_end);
  EXPECT_EQ(tail.torn_bytes, content.size() - mark_end);
  EXPECT_EQ(Wal::read(fs, "wal.log", 0).valid_end, mark_end);
}

// --- on-disk format pins ---------------------------------------------------

// Golden bytes of both durable formats: a change that moves one byte
// fails here, since existing state directories must stay recoverable.
TEST(WireFormat, WalBytesAreUnchanged) {
  util::MemStorage fs;
  Wal wal = Wal::create(fs, "wal.log", /*epoch=*/5, {});
  WalBatch batch;
  batch.epoch = 0xA1B2C3D4E5F60718ull;
  batch.updates = {{EdgeOp::kInsert, 1, 2}, {EdgeOp::kRemove, 0x01020304, 7}};
  wal.append(batch);
  const std::string golden(
      "\x09\x00\x00\x00\x4c\x32\x1f\x80\x02\x05\x00\x00\x00\x00\x00\x00"
      "\x00\x1f\x00\x00\x00\xca\x12\x7c\xf9\x01\x18\x07\xf6\xe5\xd4\xc3"
      "\xb2\xa1\x02\x00\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\x01"
      "\x04\x03\x02\x01\x07\x00\x00\x00",
      56);
  EXPECT_EQ(fs.read_file("wal.log"), golden);
}

TEST(WireFormat, CheckpointBytesAreUnchanged) {
  util::MemStorage fs;
  fs.make_dir("d");
  CheckpointData data;
  data.epoch = 3;
  data.wal_offset = 0x8877665544332211ull;
  data.num_nodes = 3;
  data.edges = {{0, 1}, {1, 2}};
  data.coreness = {1, 1, 1};
  const std::string path = write_checkpoint(fs, "d", data, 2);
  EXPECT_EQ(path, "d/checkpoint-0000000003.ckpt");
  const std::string golden(
      "\x70\x6b\x63\x6b\x3f\x4b\xf1\x75\x03\x00\x00\x00\x00\x00\x00\x00"
      "\x11\x22\x33\x44\x55\x66\x77\x88\x03\x00\x00\x00\x02\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00"
      "\x02\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00",
      64);
  EXPECT_EQ(fs.read_file(path), golden);
}

// Payloads over 64 B take the folded CRC (the two goldens above are
// 56 B and reach only the table loop). Bytes recorded from the build
// before the fold existed.
TEST(WireFormat, LongWalRecordBytesAreUnchanged) {
  util::MemStorage fs;
  Wal wal = Wal::create(fs, "wal.log", /*epoch=*/5, {});
  WalBatch batch;
  batch.epoch = 6;
  for (std::uint32_t i = 0; i < 10; ++i) {
    batch.updates.push_back({i % 3 == 2 ? EdgeOp::kRemove : EdgeOp::kInsert,
                             i * 0x01010101u + 1, 1000 - i * 37});
  }
  wal.append(batch);
  const std::string golden(
      "\x09\x00\x00\x00\x4c\x32\x1f\x80\x02\x05\x00\x00\x00\x00\x00\x00"
      "\x00\x67\x00\x00\x00\x35\xac\x9f\xaa\x01\x06\x00\x00\x00\x00\x00"
      "\x00\x00\x0a\x00\x00\x00\x00\x01\x00\x00\x00\xe8\x03\x00\x00\x00"
      "\x02\x01\x01\x01\xc3\x03\x00\x00\x01\x03\x02\x02\x02\x9e\x03\x00"
      "\x00\x00\x04\x03\x03\x03\x79\x03\x00\x00\x00\x05\x04\x04\x04\x54"
      "\x03\x00\x00\x01\x06\x05\x05\x05\x2f\x03\x00\x00\x00\x07\x06\x06"
      "\x06\x0a\x03\x00\x00\x00\x08\x07\x07\x07\xe5\x02\x00\x00\x01\x09"
      "\x08\x08\x08\xc0\x02\x00\x00\x00\x0a\x09\x09\x09\x9b\x02\x00\x00",
      128);
  EXPECT_EQ(fs.read_file("wal.log"), golden);
}

TEST(WireFormat, LongCheckpointBytesAreUnchanged) {
  util::MemStorage fs;
  fs.make_dir("d");
  CheckpointData data;
  data.epoch = 9;
  data.wal_offset = 0x0102030405060708ull;
  data.num_nodes = 6;
  data.edges = {{0, 1}, {0, 2}, {1, 2}, {1, 5}, {2, 3}, {3, 4}, {4, 5}};
  data.coreness = {2, 2, 2, 2, 2, 2};
  const std::string path = write_checkpoint(fs, "d", data, 2);
  EXPECT_EQ(path, "d/checkpoint-0000000009.ckpt");
  const std::string golden(
      "\x70\x6b\x63\x6b\x21\x8e\x90\xb4\x09\x00\x00\x00\x00\x00\x00\x00"
      "\x08\x07\x06\x05\x04\x03\x02\x01\x06\x00\x00\x00\x07\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
      "\x02\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00"
      "\x05\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00\x03\x00\x00\x00"
      "\x04\x00\x00\x00\x04\x00\x00\x00\x05\x00\x00\x00\x02\x00\x00\x00"
      "\x02\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00"
      "\x02\x00\x00\x00",
      116);
  EXPECT_EQ(fs.read_file(path), golden);
  // And it decodes back to what was written.
  const CheckpointLoadResult loaded = load_latest_checkpoint(fs, "d");
  ASSERT_TRUE(loaded.data.has_value());
  EXPECT_EQ(loaded.data->edges, data.edges);
  EXPECT_EQ(loaded.data->coreness, data.coreness);
  EXPECT_EQ(loaded.data->wal_offset, data.wal_offset);
  EXPECT_TRUE(loaded.data->order.empty());
}

// The k-order section: num_nodes × u32 after the coreness table, inside
// the CRC. A triangle {0,1,2} with a pendant node 3, ordered 3,0,1,2.
TEST(WireFormat, CheckpointWithAnOrderBytesAreUnchanged) {
  util::MemStorage fs;
  fs.make_dir("d");
  CheckpointData data;
  data.epoch = 3;
  data.wal_offset = 0x8877665544332211ull;
  data.num_nodes = 4;
  data.edges = {{0, 1}, {0, 2}, {1, 2}, {2, 3}};
  data.coreness = {2, 2, 2, 1};
  data.order = {3, 0, 1, 2};
  const std::string path = write_checkpoint(fs, "d", data, 2);
  const std::string golden(
      "\x70\x6b\x63\x6b\xe6\x1f\x5f\x16\x03\x00\x00\x00\x00\x00\x00\x00"
      "\x11\x22\x33\x44\x55\x66\x77\x88\x04\x00\x00\x00\x04\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
      "\x02\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00"
      "\x03\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00"
      "\x01\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"
      "\x02\x00\x00\x00",
      100);
  EXPECT_EQ(fs.read_file(path), golden);
  const CheckpointLoadResult loaded = load_latest_checkpoint(fs, "d");
  ASSERT_TRUE(loaded.data.has_value());
  EXPECT_EQ(loaded.data->coreness, data.coreness);
  EXPECT_EQ(loaded.data->order, data.order);
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
  EXPECT_THROW((void)parse_fsync_policy("sometimes"), util::IoError);
}

}  // namespace
}  // namespace kcore::live
