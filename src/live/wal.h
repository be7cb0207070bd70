// Append-only write-ahead log of update batches.
//
// The durability half of the live service's crash story: every batch is
// framed, checksummed, and appended to `wal.log` BEFORE the topology is
// mutated, so a crash at any point leaves either (a) no trace of the
// batch, or (b) a complete durable record that recovery replays through
// the exact same apply() semantics. A torn tail — the half-written
// record a power cut leaves behind — is detected by the length/CRC frame
// and truncated on open; everything before it is intact by construction.
// Recovery reads the log once (scan()): every record is validated, only
// the tail past the checkpoint is decoded, and the appender is
// positioned from the same scan.
//
// Record frame:   u32 payload_len | u32 crc32(payload) | payload
// Payload:        u8 type | type-specific body (all little-endian)
//   kEpochMark:   u64 epoch — written once at WAL creation, pinning the
//                 epoch the following batches build on. Recovery checks
//                 it against the checkpoint so a WAL can never be
//                 replayed onto the wrong base state.
//   kBatch:       u64 epoch | u32 count | count × (u8 op, u32 u, u32 v)
//                 — the RAW batch as submitted (coalescing happens in
//                 apply(), identically on live and replay paths).
//
// Fsync policy trades durability for throughput: kEveryBatch survives
// any crash with zero acknowledged loss; kEveryN bounds loss to the last
// N batches; kNone leaves flushing to the kernel (checkpoint barriers
// still sync, so checkpoints are never ahead of the durable WAL).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "util/storage.h"

namespace kcore::live {

enum class FsyncPolicy : std::uint8_t {
  kEveryBatch,  // sync after every append — no acknowledged batch is lost
  kEveryN,      // sync every fsync_every appends — bounded loss window
  kNone,        // never sync on append — kernel decides; fastest
};

/// CLI spelling of a policy: "every-batch", "every-n", "none".
[[nodiscard]] const char* to_string(FsyncPolicy policy) noexcept;

/// Inverse of to_string. Throws util::IoError naming the bad value and
/// the accepted spellings (a CLI prints it verbatim).
[[nodiscard]] FsyncPolicy parse_fsync_policy(const std::string& text);

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kEveryBatch;
  unsigned fsync_every = 8;  // period for kEveryN
};

/// One durable batch record.
struct WalBatch {
  std::uint64_t epoch = 0;  // the epoch this batch publishes
  std::vector<graph::EdgeUpdate> updates;
};

/// Result of scanning a WAL file. Every record the scan covered was
/// validated; `batches` holds the ones it decoded.
struct WalReadResult {
  /// read(): every batch from the offset on. scan(): only the batches
  /// past its epoch, the tail recovery replays.
  std::vector<WalBatch> batches;
  /// Byte offset one past the last valid record.
  std::uint64_t valid_end = 0;
  /// Bytes after valid_end that failed framing/CRC — the torn tail.
  std::uint64_t torn_bytes = 0;
  /// Epoch of the leading kEpochMark (only meaningful when scanning
  /// from offset 0 of a well-formed WAL).
  std::uint64_t start_epoch = 0;
  bool has_start_mark = false;
};

class Wal {
 public:
  /// Create a fresh WAL at `path` holding a single epoch mark; synced
  /// before returning (creation is a durability barrier).
  static Wal create(util::Storage& storage, const std::string& path,
                    std::uint64_t epoch, const WalOptions& options);

  /// Open an existing WAL for append from `scan`, a whole-file scan of it
  /// (scan() or read(…, 0)). Truncates the torn tail the scan found
  /// (syncing the truncation) and positions appends at its valid_end;
  /// the file is not read again.
  static Wal open(util::Storage& storage, const std::string& path,
                  const WalOptions& options, const WalReadResult& scan);

  /// Parse and decode every record starting at byte `offset`. Stops
  /// cleanly at the first torn/corrupt record (reported via torn_bytes).
  /// Throws util::IoError if `offset` lies beyond the end of the file — a
  /// checkpoint pointing past the durable WAL means the directory is
  /// inconsistent.
  static WalReadResult read(util::Storage& storage, const std::string& path,
                            std::uint64_t offset);

  /// Recovery's single pass: read the file once and validate every
  /// record from offset 0 exactly as read() does (framing, CRC, count,
  /// op bytes — so valid_end, torn_bytes and the epoch mark are the
  /// same), but decode only the batches whose epoch is past
  /// `after_epoch`. The checkpointed prefix is checked, not decoded.
  static WalReadResult scan(util::Storage& storage, const std::string& path,
                            std::uint64_t after_epoch);

  Wal(Wal&&) = default;
  Wal& operator=(Wal&&) = default;

  /// Append one batch record and apply the fsync policy. Returns the
  /// record's encoded size in bytes.
  std::uint64_t append(const WalBatch& batch);

  /// Force a sync regardless of policy (checkpoint barrier).
  void sync();

  /// Logical end of the log — the offset the next record lands at, and
  /// what a checkpoint stores as its wal_offset (call sync() first).
  [[nodiscard]] std::uint64_t end_offset() const noexcept { return end_; }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  Wal(util::Storage& storage, std::string path, const WalOptions& options,
      std::uint64_t end);

  util::Storage* storage_;
  std::string path_;
  WalOptions options_;
  std::uint64_t end_ = 0;
  unsigned unsynced_appends_ = 0;
};

}  // namespace kcore::live
