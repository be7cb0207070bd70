#include "live/wal.h"

#include <optional>
#include <string_view>
#include <utility>

#include "live/wire.h"
#include "util/check.h"
#include "util/crc32.h"

namespace kcore::live {
namespace {

constexpr std::uint8_t kTypeBatch = 1;
constexpr std::uint8_t kTypeEpochMark = 2;

// A record claiming a payload larger than this is corruption, not a big
// batch — refuse to allocate for it.
constexpr std::uint32_t kMaxPayload = 1u << 30;

// A batch record's update: op byte + two u32 node ids.
constexpr std::size_t kUpdateBytes = 9;
constexpr auto kMaxOp = static_cast<std::uint8_t>(graph::EdgeOp::kRemove);

std::string encode_frame(const std::string& payload) {
  std::string frame;
  frame.reserve(8 + payload.size());
  wire::put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  wire::put_u32(frame, util::crc32(payload));
  frame.append(payload);
  return frame;
}

std::string encode_batch(const WalBatch& batch) {
  std::string payload;
  payload.reserve(1 + 8 + 4 + batch.updates.size() * kUpdateBytes);
  wire::put_u8(payload, kTypeBatch);
  wire::put_u64(payload, batch.epoch);
  wire::put_u32(payload, static_cast<std::uint32_t>(batch.updates.size()));
  for (const graph::EdgeUpdate& u : batch.updates) {
    wire::put_u8(payload, static_cast<std::uint8_t>(u.op));
    wire::put_u32(payload, u.u);
    wire::put_u32(payload, u.v);
  }
  return encode_frame(payload);
}

std::string encode_epoch_mark(std::uint64_t epoch) {
  std::string payload;
  wire::put_u8(payload, kTypeEpochMark);
  wire::put_u64(payload, epoch);
  return encode_frame(payload);
}

/// True if every update in `updates` (whole kUpdateBytes records) has an
/// op byte inside EdgeOp.
bool ops_valid(std::string_view updates) {
  for (std::size_t i = 0; i < updates.size(); i += kUpdateBytes) {
    if (static_cast<std::uint8_t>(updates[i]) > kMaxOp) return false;
  }
  return true;
}

/// Decode updates that ops_valid() accepted.
WalBatch decode_batch(std::uint64_t epoch, std::string_view updates) {
  WalBatch batch;
  batch.epoch = epoch;
  batch.updates.resize(updates.size() / kUpdateBytes);
  wire::Reader reader(updates);
  for (graph::EdgeUpdate& u : batch.updates) {
    std::uint8_t op = 0;
    // Cannot run short: `updates` holds exactly one record per entry.
    (void)(reader.get_u8(op) && reader.get_u32(u.u) && reader.get_u32(u.v));
    u.op = static_cast<graph::EdgeOp>(op);
  }
  return batch;
}

/// The one validating pass behind read() and scan(). Every record from
/// `offset` on gets its framing, CRC, count and op bytes checked; only
/// batch records with an epoch past `decode_after` (all of them when it
/// is empty) are decoded into WalReadResult::batches.
WalReadResult parse(std::string_view content, std::uint64_t offset,
                    std::optional<std::uint64_t> decode_after) {
  WalReadResult result;
  result.valid_end = offset;
  wire::Reader reader(content.substr(static_cast<std::size_t>(offset)));
  while (reader.remaining() > 0) {
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    std::string_view payload;
    if (!reader.get_u32(len) || len > kMaxPayload || !reader.get_u32(crc) ||
        !reader.get_bytes(len, payload) || util::crc32(payload) != crc) {
      break;  // torn tail: everything from valid_end on is discarded
    }
    wire::Reader body(payload);
    std::uint8_t type = 0;
    if (!body.get_u8(type)) break;
    if (type == kTypeEpochMark) {
      std::uint64_t epoch = 0;
      if (!body.get_u64(epoch)) break;
      if (result.valid_end == offset && offset == 0) {
        result.start_epoch = epoch;
        result.has_start_mark = true;
      }
    } else if (type == kTypeBatch) {
      std::uint64_t epoch = 0;
      std::uint32_t count = 0;
      std::string_view updates;
      // A count the payload cannot hold, or an op byte outside EdgeOp,
      // is corruption under a valid CRC: stop here (torn tail) before
      // allocating for it.
      if (!body.get_u64(epoch) || !body.get_u32(count) ||
          count > body.remaining() / kUpdateBytes ||
          !body.get_bytes(std::size_t{count} * kUpdateBytes, updates) ||
          !ops_valid(updates)) {
        break;
      }
      if (!decode_after.has_value() || epoch > *decode_after) {
        result.batches.push_back(decode_batch(epoch, updates));
      }
    } else {
      break;  // unknown record type: treat as corruption, stop here
    }
    result.valid_end = offset + reader.pos();
  }
  result.torn_bytes = content.size() - result.valid_end;
  return result;
}

}  // namespace

const char* to_string(FsyncPolicy policy) noexcept {
  switch (policy) {
    case FsyncPolicy::kEveryBatch: return "every-batch";
    case FsyncPolicy::kEveryN: return "every-n";
    case FsyncPolicy::kNone: return "none";
  }
  return "every-batch";
}

FsyncPolicy parse_fsync_policy(const std::string& text) {
  if (text == "every-batch") return FsyncPolicy::kEveryBatch;
  if (text == "every-n") return FsyncPolicy::kEveryN;
  if (text == "none") return FsyncPolicy::kNone;
  throw util::IoError("unknown fsync policy '" + text +
                      "' (expected every-batch, every-n, or none)");
}

Wal::Wal(util::Storage& storage, std::string path, const WalOptions& options,
         std::uint64_t end)
    : storage_(&storage), path_(std::move(path)), options_(options),
      end_(end) {}

Wal Wal::create(util::Storage& storage, const std::string& path,
                std::uint64_t epoch, const WalOptions& options) {
  const std::string frame = encode_epoch_mark(epoch);
  storage.write_file(path, frame);
  storage.sync_file(path);
  return Wal(storage, path, options, frame.size());
}

Wal Wal::open(util::Storage& storage, const std::string& path,
              const WalOptions& options, const WalReadResult& scan) {
  if (scan.torn_bytes > 0) {
    storage.truncate_file(path, scan.valid_end);
    storage.sync_file(path);
  }
  return Wal(storage, path, options, scan.valid_end);
}

WalReadResult Wal::read(util::Storage& storage, const std::string& path,
                        std::uint64_t offset) {
  const std::string content = storage.read_file(path);
  if (offset > content.size()) {
    throw util::IoError(path + ": checkpoint references WAL offset " +
                        std::to_string(offset) + " but the log is only " +
                        std::to_string(content.size()) +
                        " bytes — the state directory is inconsistent");
  }
  return parse(content, offset, std::nullopt);
}

WalReadResult Wal::scan(util::Storage& storage, const std::string& path,
                        std::uint64_t after_epoch) {
  return parse(storage.read_file(path), 0, after_epoch);
}

std::uint64_t Wal::append(const WalBatch& batch) {
  const std::string frame = encode_batch(batch);
  storage_->append_file(path_, frame);
  end_ += frame.size();
  switch (options_.fsync) {
    case FsyncPolicy::kEveryBatch:
      sync();
      break;
    case FsyncPolicy::kEveryN:
      if (++unsynced_appends_ >= options_.fsync_every) sync();
      break;
    case FsyncPolicy::kNone:
      break;
  }
  return frame.size();
}

void Wal::sync() {
  storage_->sync_file(path_);
  unsynced_appends_ = 0;
}

}  // namespace kcore::live
