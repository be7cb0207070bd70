#include "live/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "live/wire.h"
#include "util/crc32.h"

namespace kcore::live {
namespace {

constexpr std::uint32_t kMagic = 0x6B636B70;  // "kckp"
constexpr char kPrefix[] = "checkpoint-";
constexpr char kSuffix[] = ".ckpt";
constexpr char kTempName[] = "checkpoint.tmp";

std::string checkpoint_name(std::uint64_t epoch) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%010llu%s", kPrefix,
                static_cast<unsigned long long>(epoch), kSuffix);
  return buf;
}

/// Parse "checkpoint-<epoch>.ckpt"; returns false for anything else.
bool parse_checkpoint_name(const std::string& name, std::uint64_t& epoch) {
  const std::size_t prefix_len = sizeof(kPrefix) - 1;
  const std::size_t suffix_len = sizeof(kSuffix) - 1;
  if (name.size() <= prefix_len + suffix_len) return false;
  if (name.compare(0, prefix_len, kPrefix) != 0) return false;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
    return false;
  }
  epoch = 0;
  for (std::size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    epoch = epoch * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return true;
}

std::string encode(const CheckpointData& data) {
  std::string payload;
  payload.reserve(28 + data.edges.size() * 8 + data.coreness.size() * 4);
  wire::put_u64(payload, data.epoch);
  wire::put_u64(payload, data.wal_offset);
  wire::put_u32(payload, data.num_nodes);
  wire::put_u64(payload, data.edges.size());
  for (const graph::Edge& e : data.edges) {
    wire::put_u32(payload, e.u);
    wire::put_u32(payload, e.v);
  }
  for (graph::NodeId c : data.coreness) wire::put_u32(payload, c);

  std::string file;
  file.reserve(8 + payload.size());
  wire::put_u32(file, kMagic);
  wire::put_u32(file, util::crc32(payload));
  file.append(payload);
  return file;
}

/// Decode + validate; returns a one-line reason on failure.
std::optional<CheckpointData> decode(const std::string& bytes,
                                     std::string& reason) {
  wire::Reader header(bytes);
  std::uint32_t magic = 0;
  std::uint32_t crc = 0;
  if (!header.get_u32(magic) || magic != kMagic) {
    reason = "bad magic (not a checkpoint file)";
    return std::nullopt;
  }
  if (!header.get_u32(crc)) {
    reason = "truncated header";
    return std::nullopt;
  }
  const std::string_view payload = std::string_view(bytes).substr(8);
  if (util::crc32(payload) != crc) {
    reason = "CRC mismatch (torn or corrupt write)";
    return std::nullopt;
  }

  CheckpointData data;
  wire::Reader body(payload);
  std::uint64_t num_edges = 0;
  if (!body.get_u64(data.epoch) || !body.get_u64(data.wal_offset) ||
      !body.get_u32(data.num_nodes) || !body.get_u64(num_edges)) {
    reason = "truncated payload header";
    return std::nullopt;
  }
  // Counts the payload cannot hold are corruption under a valid CRC:
  // reject them before allocating for them.
  if (num_edges > body.remaining() / 8) {
    reason = "edge count exceeds the payload";
    return std::nullopt;
  }
  data.edges.reserve(num_edges);
  for (std::uint64_t i = 0; i < num_edges; ++i) {
    graph::Edge e;
    if (!body.get_u32(e.u) || !body.get_u32(e.v)) {
      reason = "truncated edge list";
      return std::nullopt;
    }
    if (e.u >= data.num_nodes || e.v >= data.num_nodes) {
      reason = "edge endpoint out of range";
      return std::nullopt;
    }
    data.edges.push_back(e);
  }
  if (data.num_nodes > body.remaining() / 4) {
    reason = "node count exceeds the payload";
    return std::nullopt;
  }
  data.coreness.resize(data.num_nodes);
  for (graph::NodeId u = 0; u < data.num_nodes; ++u) {
    if (!body.get_u32(data.coreness[u])) {
      reason = "truncated coreness table";
      return std::nullopt;
    }
  }
  if (body.remaining() != 0) {
    reason = "trailing bytes after coreness table";
    return std::nullopt;
  }
  return data;
}

}  // namespace

std::string write_checkpoint(util::Storage& storage, const std::string& dir,
                             const CheckpointData& data, unsigned keep) {
  const std::string tmp = dir + "/" + kTempName;
  const std::string final_path = dir + "/" + checkpoint_name(data.epoch);
  storage.write_file(tmp, encode(data));
  storage.sync_file(tmp);
  storage.rename_file(tmp, final_path);

  // Prune: keep the newest `keep` checkpoints (never fewer than the one
  // just written). Pruning failures are non-fatal by design — the next
  // checkpoint retries — but we let IoError propagate from list_dir since
  // an unlistable state dir is a real problem.
  std::vector<std::uint64_t> epochs;
  for (const std::string& name : storage.list_dir(dir)) {
    std::uint64_t epoch = 0;
    if (parse_checkpoint_name(name, epoch)) epochs.push_back(epoch);
  }
  std::sort(epochs.begin(), epochs.end());
  if (keep == 0) keep = 1;
  while (epochs.size() > keep) {
    storage.remove_file(dir + "/" + checkpoint_name(epochs.front()));
    epochs.erase(epochs.begin());
  }
  return final_path;
}

CheckpointLoadResult load_latest_checkpoint(util::Storage& storage,
                                            const std::string& dir) {
  CheckpointLoadResult result;
  std::vector<std::uint64_t> epochs;
  for (const std::string& name : storage.list_dir(dir)) {
    std::uint64_t epoch = 0;
    if (parse_checkpoint_name(name, epoch)) epochs.push_back(epoch);
  }
  std::sort(epochs.begin(), epochs.end(), std::greater<>());
  for (std::uint64_t epoch : epochs) {
    const std::string path = dir + "/" + checkpoint_name(epoch);
    std::string reason;
    std::optional<CheckpointData> data = decode(storage.read_file(path), reason);
    if (data) {
      result.data = std::move(data);
      result.file = path;
      return result;
    }
    result.rejected.push_back(path + ": " + reason);
  }
  return result;
}

}  // namespace kcore::live
